package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/stats"
)

// permTest evaluates up to b permuted statistics (concurrently when
// parallelism allows), counting how many exceed the observed one. Once the
// count passes allow the reject verdict is determined — no outcome of the
// remaining permutations can change it — so pending evaluations are skipped.
// The accept verdict still requires every permutation to run, so the final
// count is exact whenever count ≤ allow. Permutation i's statistic depends
// only on its own seed, never on evaluation order, so the verdict is
// deterministic under any schedule; only the number of permutations actually
// run (returned for the PermutationsRun counter) varies under parallelism.
//
// A permutation that fails to evaluate no longer counts as an exceedance —
// that silently rejected healthy candidates on transient encode failures.
// The first error is returned instead and the caller propagates it.
func permTest(ctx context.Context, b, allow, parallelism int, eval func(i int) (bool, error)) (count, ran int, err error) {
	var exceeded, evaluated int64
	var errOnce sync.Once
	var firstErr error
	parallelFor(ctx, b, parallelism, func(i int) {
		if atomic.LoadInt64(&exceeded) > int64(allow) {
			return // reject verdict already determined
		}
		atomic.AddInt64(&evaluated, 1)
		exceed, e := eval(i)
		if e != nil {
			errOnce.Do(func() { firstErr = e })
			return
		}
		if exceed {
			atomic.AddInt64(&exceeded, 1)
		}
	})
	return int(atomic.LoadInt64(&exceeded)), int(atomic.LoadInt64(&evaluated)), firstErr
}

// permDependent reports whether the observed statistic I(O; E | given)
// significantly exceeds its permutation null: the candidate's values are
// shuffled at source granularity (entities for KG attributes, preserving
// the missingness pattern) and the observed value must exceed all but
// `allow` of the b permuted statistics — a one-sided test at
// p ≤ (allow+1)/(b+1).
//
// This is the calibrated dependence test used by the responsibility test
// (Lemma 4.2) and by the permutation variant of the low-relevance prune:
// entity-level attributes correlate with the outcome by chance at entity
// granularity, which row-level χ² corrections cannot account for.
//
// given may be a pre-joined composite of the selected prefix
// (infotheory.JoinVars); depth is the logical size of the conditioning set,
// kept separate so the seed schedule is unchanged by the composite
// representation. Errors from Permute propagate to the caller.
func permDependent(ctx context.Context, tr *obs.Trace, o *bins.Encoded, cand *Candidate, enc *bins.Encoded, given []infotheory.Var,
	depth, b, allow, parallelism int, seed uint64) (bool, error) {

	tr.Add(obs.CITests, 1)
	observed := infotheory.CondMutualInfo(o, enc, given, nil)
	if observed <= 0 {
		return false, nil
	}
	base := seed*0x9e3779b9 + uint64(depth)*1000003 + HashName(cand.Name)
	count, ran, err := permTest(ctx, b, allow, parallelism, func(i int) (bool, error) {
		pe, err := cand.Permute(stats.NewRNG(base + uint64(i)*0x45d9f3b))
		if err != nil {
			return false, err
		}
		return infotheory.CondMutualInfo(o, pe, given, nil) >= observed, nil
	})
	tr.Add(obs.PermutationsRun, int64(ran))
	if err != nil {
		return false, err
	}
	return count <= allow, nil
}

// entityPermDependent is the marginal permutation relevance test of an
// entity-form candidate: its dependence on the outcome must beat a null that
// shuffles the slot-level codes across slots (the null Candidate.Permute
// broadcasts). Permuting at entity granularity only regroups slots, so each
// statistic costs O(#slots · |O|) from the cube's (o, slot) cells instead of
// O(#rows) — the cube of this run's outcome. Serial; exits early like permTest.
func entityPermDependent(tr *obs.Trace, cube *counting.SlotCube, name string, ent *bins.Encoded, b, allow int, seed uint64) bool {
	tr.Add(obs.CITests, 1)
	observed := slotMI(cube, ent.Codes, ent.Card)
	if observed <= 0 {
		return false
	}
	// ShuffleObserved's draws, into one scratch vector: the observed slots
	// are indexed once per test, not once per draw.
	rng := stats.NewRNG(seed*0x9e3779b9 + HashName(name))
	codes := make([]int32, len(ent.Codes))
	observedSlots := make([]int, 0, len(ent.Codes))
	for s, c := range ent.Codes {
		if c != bins.Missing {
			observedSlots = append(observedSlots, s)
		}
	}
	exceed, ran := 0, 0
	for ran < b && exceed <= allow {
		ran++
		copy(codes, ent.Codes)
		rng.Shuffle(len(observedSlots), func(i, j int) {
			codes[observedSlots[i]], codes[observedSlots[j]] = codes[observedSlots[j]], codes[observedSlots[i]]
		})
		if slotMI(cube, codes, ent.Card) >= observed {
			exceed++
		}
	}
	tr.Add(obs.PermutationsRun, int64(ran))
	return exceed <= allow
}

// slotMI computes I(O; E) where E assigns the cube's entity slots to codes,
// over the rows that have a slot, an outcome and a present code.
func slotMI(cube *counting.SlotCube, slotCodes []int32, card int) float64 {
	p := cube.PairO(slotCodes, card)
	defer p.Release()
	if p.Total <= 0 {
		return 0
	}
	mi := 0.0
	for oc := 0; oc < p.Cx; oc++ {
		joint := p.Joint[oc*card : (oc+1)*card]
		oTot := 0.0
		for _, pj := range joint {
			oTot += pj
		}
		for ec, pj := range joint {
			if pj > 0 {
				mi += pj / p.Total * math.Log2(p.Total*pj/(oTot*p.EMargin[ec]))
			}
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// permDependentWire is permDependent routed through the Scorer seam for
// wire-permutable candidates: same statistic, same seed schedule (the block
// base and the per-permutation stride are unchanged), same early-exit
// semantics — with Local the two paths are bit-identical, and a remote
// scorer reproduces the block from the explicit seeds. The observed
// statistic and the <= 0 shortcut stay on the coordinator, so a degenerate
// candidate never costs a network round trip.
func permDependentWire(ctx context.Context, tr *obs.Trace, scorer Scorer, sctx *ScoreContext, candIdx int, o *bins.Encoded, name string, given []infotheory.Var,
	depth, b, allow int, seed uint64) (bool, error) {

	tr.Add(obs.CITests, 1)
	observed := infotheory.CondMutualInfo(o, sctx.Cands[candIdx], given, nil)
	if observed <= 0 {
		return false, nil
	}
	base := seed*0x9e3779b9 + uint64(depth)*1000003 + HashName(name)
	seeds := make([]uint64, b)
	for i := range seeds {
		seeds[i] = base + uint64(i)*0x45d9f3b
	}
	exceed, ran, err := scorer.PermBlock(ctx, sctx, PermSpec{
		Cand: candIdx, Given: givenVar(given), Op: PermResp,
		Observed: observed, Seeds: seeds, Allow: allow,
	})
	tr.Add(obs.PermutationsRun, int64(ran))
	if err != nil {
		return false, err
	}
	return countExceed(exceed) <= allow, nil
}

// gainSignificantWire is the calibrated gain test routed through the Scorer
// seam (see permDependentWire for the equivalence argument).
func gainSignificantWire(ctx context.Context, tr *obs.Trace, scorer Scorer, sctx *ScoreContext, candIdx int, name string, given []infotheory.Var,
	b, allow int, seed uint64, iter int) (bool, error) {

	tr.Add(obs.CITests, 1)
	observed := infotheory.CondMutualInfo(sctx.O, sctx.T, append(append([]infotheory.Var{}, given...), sctx.Cands[candIdx]), nil)
	base := seed*0x2545f491 + uint64(iter)*7919 + HashName(name)
	seeds := make([]uint64, b)
	for i := range seeds {
		seeds[i] = base + uint64(i)*0x9e3779b9
	}
	exceed, ran, err := scorer.PermBlock(ctx, sctx, PermSpec{
		Cand: candIdx, Given: givenVar(given), Op: PermGain,
		Observed: observed, Seeds: seeds, Allow: allow,
	})
	tr.Add(obs.PermutationsRun, int64(ran))
	if err != nil {
		return false, err
	}
	return countExceed(exceed) <= allow, nil
}

// givenVar unwraps the ≤1-element pre-joined conditioning set into the
// single composite column a PermSpec carries.
func givenVar(given []infotheory.Var) *bins.Encoded {
	if len(given) == 0 {
		return nil
	}
	return given[0]
}

func countExceed(exceed []bool) int {
	n := 0
	for _, e := range exceed {
		if e {
			n++
		}
	}
	return n
}

// HashName folds an attribute name into a permutation seed (an FNV-1a-style
// hash whose constants are pinned: every seeded null model in the pipeline,
// row-level or entity-level, derives its RNG stream from it).
func HashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
