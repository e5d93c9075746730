package infotheory

import (
	"math"

	"nexus/internal/counting"
)

// OnlineScreen holds the statistics the online prune needs for one
// candidate E against the exposure T and outcome O, gathered by ScreenAll
// in a single counting pass over the rows:
//
//   - the approximate-FD entropies H(O|E), H(T|E) (Lemma A.2 tests) over
//     the (O,T,E) complete cases;
//
//   - the marginal relevance test O ⊥ E over the (O,E) complete cases.
//
//   - the conditional relevance test O ⊥ E | T over the same complete
//     cases (the margins and joint it needs are accumulated in the same
//     pass; only its finalize is deferred until the marginal test fires).
//
// The unfused pipeline paid one full counting pass per statistic (a Screen
// pass plus up to two CondIndependent passes per candidate) — the dominant
// cost of the online-prune phase. The fused pass (counting.CountScreen)
// accumulates the contingency tallies of all of them at once, in the same
// per-row order as the unfused estimators (cmiDenseStats), so every
// statistic is bit-identical to its unfused counterpart and no threshold
// verdict can flip. The FD entropies additionally skip the unfused
// estimator's relevance (MI) finalize loop over the 3-way joint — the prune
// discards that term.
//
// An OnlineScreen is used by a single goroutine (the prune worker that
// built it) and must not be shared.
type OnlineScreen struct {
	weighted bool

	// Dense fast path: raw tallies from the fused kernel pass, nil when the
	// joint domain left the dense bound (degenerate cards or > maxDense).
	// The gate matches the unfused estimators' dense gate exactly, so the
	// fallback routes precisely the candidates the unfused pipeline would
	// have sent to the sparse (hash-map) estimator.
	tally *counting.Screen

	// Inputs, kept for the fallback path.
	o, t, e Var
	w       []float64
}

// ScreenAll runs the fused counting pass. The dense path applies under
// exactly the condition the unfused estimators would use their dense path
// (joint domain within maxDense); otherwise the methods fall back to the
// unfused estimators, which are identical in value.
func ScreenAll(o, t, e Var, w []float64) *OnlineScreen {
	return &OnlineScreen{
		weighted: w != nil, o: o, t: t, e: e, w: w,
		tally: counting.CountScreen(o.Codes, t.Codes, e.Codes, o.Card, t.Card, e.Card, w),
	}
}

// ScreenSlots is ScreenAll for an unweighted candidate that is a function of
// an entity slot: e holds one code per slot, and the tallies are folded from
// the slot map's cube instead of counted over rows — equal, cell for cell
// (counting.SlotCube). It returns nil past the dense bound, under exactly
// ScreenAll's gate: the caller then screens the broadcast encoding. With no
// row-level inputs to fall back to, it must not be used after Release.
func ScreenSlots(cube *counting.SlotCube, e Var) *OnlineScreen {
	tally := cube.Screen(e.Codes, e.Card)
	if tally == nil {
		return nil
	}
	return &OnlineScreen{tally: tally}
}

// Release returns the tally storage to the pool. Call it once the verdicts
// have been read; after Release the methods still answer correctly (they
// fall back to the unfused estimators) but the fused tallies are gone. Not
// calling Release is safe — the storage is then simply garbage-collected.
func (s *OnlineScreen) Release() {
	if s.tally == nil {
		return
	}
	s.tally.Release()
	s.tally = nil
}

// FDEntropies returns the approximate-FD entropies H(O|E) and H(T|E) over
// the (O,T,E) complete cases — identical to the last two results of
// Screen(o, t, e, w), without the relevance term (the prune discards it,
// and it is the only consumer of the expensive 3-way joint).
func (s *OnlineScreen) FDEntropies() (hOgivenE, hTgivenE float64) {
	f := s.tally
	if f == nil {
		_, hO, hT := Screen(s.o, s.t, s.e, s.w)
		return hO, hT
	}
	if f.WS3 <= 0 {
		return 0, 0
	}
	total := f.WS3
	for zi := 0; zi < f.Ce; zi++ {
		pz := f.ZE[zi]
		if pz <= 0 {
			continue
		}
		for xc := 0; xc < f.Co; xc++ {
			if pzx := f.EO[zi*f.Co+xc]; pzx > 0 {
				hOgivenE -= pzx / total * math.Log2(pzx/pz)
			}
		}
		// The (E,T) cell values live in TE (t-major, shared with the
		// conditional test — per-cell sums are layout-independent); read
		// them transposed, in the same (e outer, t inner) loop order as the
		// unfused estimator's hy pass.
		for yc := 0; yc < f.Ct; yc++ {
			if pzy := f.TE[yc*f.Ce+zi]; pzy > 0 {
				hTgivenE -= pzy / total * math.Log2(pzy/pz)
			}
		}
	}
	return hOgivenE, hTgivenE
}

// MarginalIndependent reports O ⊥ E at the threshold — identical to
// CondIndependent(o, e, nil, w, threshold). This mirrors cmiDenseStats with
// a single stratum (empty conditioning set) over the (O,E) complete cases.
func (s *OnlineScreen) MarginalIndependent(threshold float64) bool {
	f := s.tally
	if f == nil {
		return CondIndependent(s.o, s.e, nil, s.w, threshold)
	}
	st := cmiStats{weightSum: f.WS2, weightSqSum: f.WSQ2}
	if f.WS2 <= 0 {
		return condIndependentStats(cmiStats{}, s.weighted, threshold)
	}
	total := f.WS2
	st.nz = 1
	mi := 0.0
	for xc := 0; xc < f.Co; xc++ {
		px := f.OM[xc]
		if px <= 0 {
			continue
		}
		st.nx++
		for yc := 0; yc < f.Ce; yc++ {
			pj := f.OE[xc*f.Ce+yc]
			if pj <= 0 {
				continue
			}
			py := f.EM[yc]
			mi += pj / total * math.Log2(total*pj/(px*py))
		}
	}
	for yc := 0; yc < f.Ce; yc++ {
		if f.EM[yc] > 0 {
			st.ny++
		}
	}
	if mi < 0 {
		mi = 0
	}
	st.mi = mi
	for xc := 0; xc < f.Co; xc++ {
		if px := f.OM[xc]; px > 0 {
			st.hx -= px / total * math.Log2(px/total)
		}
	}
	for yc := 0; yc < f.Ce; yc++ {
		if py := f.EM[yc]; py > 0 {
			st.hy -= py / total * math.Log2(py/total)
		}
	}
	return condIndependentStats(st, s.weighted, threshold)
}

// CondIndependentGivenT reports O ⊥ E | T at the threshold — identical to
// CondIndependent(o, e, []Var{t}, w, threshold). The finalize below is
// cmiDenseStats's, verbatim, over the z = t tallies of the fused pass; it
// only runs when the marginal test fired, so most candidates never pay it.
func (s *OnlineScreen) CondIndependentGivenT(threshold float64) bool {
	f := s.tally
	if f == nil {
		return CondIndependent(s.o, s.e, []Var{s.t}, s.w, threshold)
	}
	st := cmiStats{weightSum: f.WS3, weightSqSum: f.WSQ3}
	if f.WS3 <= 0 {
		return condIndependentStats(cmiStats{}, s.weighted, threshold)
	}
	total := f.WS3
	xSeen := make([]bool, f.Co)
	ySeen := make([]bool, f.Ce)
	mi := 0.0
	for zi := 0; zi < f.Ct; zi++ {
		if f.TM[zi] <= 0 {
			continue
		}
		st.nz++
		for xc := 0; xc < f.Co; xc++ {
			pzx := f.TO[zi*f.Co+xc]
			if pzx <= 0 {
				continue
			}
			xSeen[xc] = true
			for yc := 0; yc < f.Ce; yc++ {
				pj := f.JointT[(zi*f.Co+xc)*f.Ce+yc]
				if pj <= 0 {
					continue
				}
				ySeen[yc] = true
				pzy := f.TE[zi*f.Ce+yc]
				mi += pj / total * math.Log2(f.TM[zi]*pj/(pzx*pzy))
			}
		}
	}
	for _, seen := range xSeen {
		if seen {
			st.nx++
		}
	}
	for _, seen := range ySeen {
		if seen {
			st.ny++
		}
	}
	if mi < 0 {
		mi = 0
	}
	st.mi = mi
	for zi := 0; zi < f.Ct; zi++ {
		if f.TM[zi] <= 0 {
			continue
		}
		for xc := 0; xc < f.Co; xc++ {
			if pzx := f.TO[zi*f.Co+xc]; pzx > 0 {
				st.hx -= pzx / total * math.Log2(pzx/f.TM[zi])
			}
		}
		for yc := 0; yc < f.Ce; yc++ {
			if pzy := f.TE[zi*f.Ce+yc]; pzy > 0 {
				st.hy -= pzy / total * math.Log2(pzy/f.TM[zi])
			}
		}
	}
	return condIndependentStats(st, s.weighted, threshold)
}
