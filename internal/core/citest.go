package core

import (
	"context"
	"fmt"
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

// stat is the statistic op tests, for a candidate encoding e (real or
// permuted) under the pre-joined prefix given: I(O; E | given) for the
// responsibility test, the joint score I(O; T | given, E) for the gain test.
// Both are unweighted — a permuted copy has no IPW weights of its own.
func (op PermOp) stat(t, o, e *bins.Encoded, given []infotheory.Var) float64 {
	if op == PermGain {
		return infotheory.CondMutualInfo(o, t, append(append([]infotheory.Var{}, given...), e), infotheory.Weights{})
	}
	return infotheory.CondMutualInfo(o, e, given, infotheory.Weights{})
}

// exceeds reports whether a permuted statistic counts against the observed
// one: a permuted copy as dependent on O as the real candidate (PermResp), or
// one that "explains" as much of the joint score (PermGain).
func (op PermOp) exceeds(perm, observed float64) bool {
	if op == PermGain {
		return perm <= observed
	}
	return perm >= observed
}

// permSignificant is the pipeline's one permutation test: it reports whether
// the observed statistic of op beats its permutation null — all but allow of b
// permuted statistics must not exceed it, a one-sided test at
// p ≤ (allow+1)/(b+1). The candidate's values are shuffled at source
// granularity (entities for KG attributes, preserving the missingness
// pattern): entity-level attributes correlate with the outcome by chance at
// entity granularity, which row-level χ² corrections cannot account for. It
// serves the responsibility test (Lemma 4.2), the calibrated gain guard and
// the permutation variant of the low-relevance prune.
//
// given may be a pre-joined composite of the selected prefix
// (infotheory.JoinVars). Permutation i draws from seed base + i·stride, where
// base folds seed, step (the logical prefix size for PermResp, the iteration
// for PermGain — kept apart from the composite so its representation leaves
// the schedule unchanged) and the candidate's name. The observed statistic
// and PermResp's observed ≤ 0 shortcut stay in this process, so a degenerate
// candidate never costs a network round trip.
//
// A WirePerm candidate's block goes through scorer.PermBlock when a scorer is
// given (sctx.Cands[idx] being enc). A WirePerm or entity-form candidate's
// block otherwise draws ShuffleObserved — the draw of its Candidate.Permute —
// into vectors lent to permTest's workers (drawVectors), and any other runs
// cand.Permute. Local.PermBlock is permTest over the same draws and the same
// stat/exceeds, so for a FromColumn candidate the arms are bit-identical
// (TestPermArmsAgree). An entity form's statistics, observed and permuted,
// are folded from its link column's slot cube when sctx has folds and the
// row pass would be dense — the same bits as over the rows
// (TestMCIMRFoldMatchesRowPass). A block cut short by ctx yields no verdict:
// the error wraps ctx.Err(), as does any Permute or scorer failure.
func permSignificant(ctx context.Context, tr *obs.Trace, op PermOp, t, o *bins.Encoded, cand *Candidate, enc *bins.Encoded, given []infotheory.Var,
	seed uint64, step, b, allow, parallelism int, scorer Scorer, sctx *ScoreContext, idx int) (bool, error) {

	tr.Add(obs.CITests, 1)
	stat := func(e *bins.Encoded) float64 { return op.stat(t, o, e, given) }
	var folds *slotFolds
	if sctx != nil {
		folds = sctx.folds
	}
	observed, folded := folds.perm(op, enc, given)
	if folded {
		stat = func(e *bins.Encoded) float64 {
			v, _ := folds.perm(op, e, given)
			return v
		}
	} else {
		observed = stat(enc)
	}
	if op != PermGain && observed <= 0 {
		return false, nil
	}
	base, stride := seed*0x9e3779b9+uint64(step)*1000003, uint64(0x45d9f3b)
	if op == PermGain {
		base, stride = seed*0x2545f491+uint64(step)*7919, 0x9e3779b9
	}
	base += HashName(cand.Name)

	var count, ran int
	var err error
	switch {
	case cand.WirePerm && scorer != nil:
		seeds := make([]uint64, b)
		for i := range seeds {
			seeds[i] = base + uint64(i)*stride
		}
		var exceed []bool
		exceed, ran, err = scorer.PermBlock(ctx, sctx, PermSpec{
			Cand: idx, Given: givenVar(given), Op: op, Observed: observed, Seeds: seeds, Allow: allow,
		})
		for _, e := range exceed {
			if e {
				count++
			}
		}
	case cand.WirePerm || cand.Entity != nil:
		var draws drawVectors
		count, ran, err = permTest(ctx, b, allow, parallelism, func(i int) (bool, error) {
			return op.exceeds(draws.stat(enc, base+uint64(i)*stride, stat), observed), nil
		})
	default:
		count, ran, err = permTest(ctx, b, allow, parallelism, func(i int) (bool, error) {
			pe, err := cand.Permute(stats.NewRNG(base + uint64(i)*stride))
			if err != nil {
				return false, err
			}
			return op.exceeds(stat(pe), observed), nil
		})
	}
	tr.Add(obs.PermutationsRun, int64(ran))
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("core: permutation test of %q: %w", cand.Name, ctx.Err())
	}
	if err != nil {
		return false, err
	}
	return count <= allow, nil
}

// entityPermDependent is the marginal permutation relevance test of an
// entity-form candidate: its dependence on the outcome must beat a null that
// shuffles the slot-level codes across slots (the null Candidate.Permute
// broadcasts). Permuting at entity granularity only regroups slots, so each
// statistic costs O(#slots · |O|) from the cells of pair, the (·, O, ·) cube
// of the candidate's link column and this run's outcome, instead of O(#rows).
// Serial; exits early like permTest.
func entityPermDependent(tr *obs.Trace, pair *counting.SlotCube, name string, ent *bins.Encoded, b, allow int, seed uint64) bool {
	tr.Add(obs.CITests, 1)
	observed := slotMI(pair, ent.Codes, ent.Card)
	if observed <= 0 {
		return false
	}
	// ShuffleObserved's draws, into one scratch vector.
	rng := stats.NewRNG(seed*0x9e3779b9 + HashName(name))
	codes := make([]int32, len(ent.Codes))
	exceed, ran := 0, 0
	for ran < b && exceed <= allow {
		ran++
		shuffleObservedInto(codes, ent.Codes, rng)
		if slotMI(pair, codes, ent.Card) >= observed {
			exceed++
		}
	}
	tr.Add(obs.PermutationsRun, int64(ran))
	return exceed <= allow
}

// slotMI computes I(O; E) where E assigns the entity slots of pair, a
// (·, O, ·) cube, to codes, over the rows that have a slot, an outcome and a
// present code: the marginal finalize of infotheory over the cube's (O, E)
// fold, equal bit for bit to infotheory.MutualInfo on the broadcast encoding.
func slotMI(pair *counting.SlotCube, slotCodes []int32, card int) float64 {
	p := pair.Pair(slotCodes, card)
	defer p.Release()
	return infotheory.TallyMutualInfo(&p)
}

// givenVar unwraps the ≤1-element pre-joined conditioning set into the
// single composite column a PermSpec carries.
func givenVar(given []infotheory.Var) *bins.Encoded {
	if len(given) == 0 {
		return nil
	}
	return given[0]
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
