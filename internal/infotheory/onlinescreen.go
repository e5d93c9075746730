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
// pass plus up to two CondIndependent passes per candidate). The fused pass
// (counting.CountScreen) accumulates the contingency tallies of all of them
// at once, in the same per-row order as the unfused estimators
// (cmiDenseStats), so every tally, both FD entropies and all three verdicts
// equal their unfused counterparts — the entropies bit for bit, without the
// unfused estimator's relevance (MI) loop over the 3-way joint.
//
// An OnlineScreen is used by a single goroutine (the prune worker that
// built it) and must not be shared.
type OnlineScreen struct {
	weighted   bool
	condWalked bool // see CondWalked

	// Dense fast path: raw tallies from the fused kernel pass, nil when the
	// joint domain left the dense bound (degenerate cards or > maxDense).
	// The gate matches the unfused estimators' dense gate exactly, so the
	// fallback routes precisely the candidates the unfused pipeline would
	// have sent to the sparse (hash-map) estimator.
	tally *counting.Screen

	// Inputs, kept for the fallback path.
	o, t, e Var
	w       Weights
}

// ScreenAll runs the fused counting pass. The dense path applies under
// exactly the condition the unfused estimators would use their dense path
// (joint domain within maxDense); otherwise the methods fall back to the
// unfused estimators, which are identical in value. The weights may be in
// either form: an IPW-weighted entity-form candidate is screened from its
// slot codes and slot weights, read through the row→slot map.
func ScreenAll(o, t, e Var, w Weights) *OnlineScreen {
	return &OnlineScreen{
		weighted: w.W != nil, o: o, t: t, e: e, w: w,
		tally: counting.CountScreenOf(dim(o), dim(t), dim(e), w),
	}
}

// ScreenSlots is ScreenAll for an unweighted candidate that is a function of
// an entity slot: e holds one code per slot, and the tallies are folded from
// the slot map's (·, O, T) and (·, O, ·) cubes instead of counted over rows —
// equal, cell for cell (counting.SlotCube.Screen). It returns nil past the
// dense bound, under exactly ScreenAll's gate: the caller then screens the
// broadcast encoding. With no row-level inputs to fall back to, it must not
// be used after Release.
func ScreenSlots(cube, pair *counting.SlotCube, e Var) *OnlineScreen {
	tally := cube.Screen(pair, e.Codes, e.Card)
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
// the (O,T,E) complete cases — the conditional entropies of the unfused
// I(O;T|E) pass, without its relevance term (the prune discards it, and it
// is the only consumer of the expensive 3-way joint).
func (s *OnlineScreen) FDEntropies() (hOgivenE, hTgivenE float64) {
	f := s.tally
	if f == nil {
		st := cmi(s.o, s.t, []Var{s.e}, s.w)
		return st.hx, st.hy
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
// CondIndependent(o, e, nil, w, threshold): cmiDenseStats with one stratum over
// the (O,E) complete cases.
func (s *OnlineScreen) MarginalIndependent(threshold float64) bool {
	f := s.tally
	if f == nil {
		return CondIndependent(s.o, s.e, nil, s.w, threshold)
	}
	st := cmiDenseStats(f.OE, f.OM, f.EM, []float64{f.WS2}, f.Co, f.Ce, f.MarginalOccupancy(), f.WS2, f.WSQ2)
	return condIndependentStats(st, s.weighted, threshold)
}

// CondIndependentGivenT reports O ⊥ E | T at the threshold — identical to
// CondIndependent(o, e, []Var{t}, w, threshold); it only runs when the
// marginal test fired, so most candidates never pay it. Which finalize judges
// is a function of the input alone. Unweighted tallies are integer counts, so
// condStatsEntropy's table look-ups decide whenever decideWithin proves the
// verdict is the walk's. Weighted tallies, and the rare statistic within
// entropyBound of a decision boundary, take the walk: cmiDenseStats over the
// z = t tallies of the fused pass.
func (s *OnlineScreen) CondIndependentGivenT(threshold float64) bool {
	f := s.tally
	s.condWalked = f == nil // the unfused estimator is a math.Log2 walk too
	if f == nil {
		return CondIndependent(s.o, s.e, []Var{s.t}, s.w, threshold)
	}
	if f.WS3 <= 0 {
		return condIndependentStats(cmiStats{}, s.weighted, threshold)
	}
	if !s.weighted {
		if independent, ok := decideWithin(condStatsEntropy(f), entropyBound(f), threshold); ok {
			return independent
		}
	}
	s.condWalked = true
	st := cmiDenseStats(f.JointT, f.TO, f.TE, f.TM, f.Co, f.Ce, f.CondOccupancy(), f.WS3, f.WSQ3)
	return condIndependentStats(st, s.weighted, threshold)
}

// CondWalked reports whether the last CondIndependentGivenT was finalized by
// the math.Log2 walk (or the unfused estimator, past the dense bound) rather
// than by the entropy form — what obs.CondWalks counts.
func (s *OnlineScreen) CondWalked() bool { return s.condWalked }

// klogkTable[k] = k·log2 k. An unweighted tally is a row count, nearly always
// a small one, so the entropy form's logarithms are look-ups.
var klogkTable = func() (t [4096]float64) {
	for k := 2; k < len(t); k++ {
		t[k] = float64(k) * math.Log2(float64(k))
	}
	return t
}()

func positives(counts []float64) (n int) {
	for _, k := range counts {
		if k > 0 {
			n++
		}
	}
	return n
}

// sumKLogK returns Σ k·log2 k over integer counts, added in slice order.
func sumKLogK(counts []float64) (sum float64) {
	for _, k := range counts {
		if k < float64(len(klogkTable)) {
			sum += klogkTable[int(k)]
		} else {
			sum += k * math.Log2(k)
		}
	}
	return sum
}

// condStatsEntropy is the walk's cmiStats for integer tallies, in entropy
// form: with A, B, C, J = Σ k·log2 k over TM, TO, TE and JointT and N = WS3,
//
//	I(O;E|T) = ((J − B) + (A − C))/N,  H(O|T) = (A − B)/N,  H(E|T) = (A − C)/N.
//
// The support sizes are the walk's (a count is positive where the walk sees a
// code). Each sum runs in the walk's (t, o, e) order and a zero count adds
// +0, so when O or E is a function of T the paired sums add the same terms in
// the same order and the zeros the walk yields stay exactly zero; otherwise
// mi, hx and hy differ from the walk's in their last bits, by less than
// entropyBound.
func condStatsEntropy(f *counting.Screen) cmiStats {
	st := cmiStats{weightSum: f.WS3, weightSqSum: f.WSQ3, nx: supportSize(f.TO, f.Co), ny: positives(f.ZE), nz: positives(f.TM)}
	a, b, c, j := sumKLogK(f.TM), sumKLogK(f.TO), sumKLogK(f.TE), sumKLogK(f.JointT)
	st.mi = math.Max(((j-b)+(a-c))/f.WS3, 0)
	st.hx, st.hy = (a-b)/f.WS3, (a-c)/f.WS3
	return st
}

// entropyBound bounds |condStatsEntropy − walk| for each of mi, hx and hy over
// n = len(JointT) cells and N = WS3 rows, with ε = 2⁻⁵². A term k·log2 k has
// a relative error below 3.5ε and a running sum of at most n of them, at most
// N·log2 N in all, adds a relative n·ε/2, so the four sums put mi within
// (2n + 14)·ε·log2 N of its exact value; the walk's n terms (ratio, log2,
// product, running sum) stay within (n/2 + 6)·ε·log2 N of it. The bound is
// more than three times their sum, which also covers the roundings of
// decideWithin's own arithmetic. ≈ 5·10⁻¹⁰ bits on Flights Q1 at 50,000 rows.
func entropyBound(f *counting.Screen) float64 {
	return 8 * float64(len(f.JointT)+16) * 0x1p-52 * math.Log2(f.WS3)
}

// decideWithin is condIndependentStats (unweighted) for statistics known to
// lie within bound of the walk's: the walk's verdict, when each comparison
// behind it — debiased MI against 0, min(hx, hy) against 0, their ratio
// against the threshold — comes out the same anywhere within bound; else ok
// is false and the walk itself must judge.
func decideWithin(st cmiStats, bound, threshold float64) (independent, ok bool) {
	lo, hi := st, st
	lo.mi, hi.mi = math.Max(st.mi-bound, 0), st.mi+bound
	dLo, dHi := debiasedMI(lo, false), debiasedMI(hi, false)
	if dHi == 0 {
		return true, true
	}
	m := math.Min(st.hx, st.hy)
	if dLo == 0 || m <= bound {
		return false, false
	}
	independent = dHi/(m-bound) < threshold
	return independent, independent || dLo/(m+bound) >= threshold
}
