package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
)

// PruneOptions switches off the permutation variant of the low-relevance
// test (see permRelevanceTests), which leaves the analytic tests alone to
// judge relevance. Options.Prune carries it, and it is exported so that tests
// outside this package can compare the entity and row forms of a candidate
// without the two forms' nulls, which draw differently.
type PruneOptions struct {
	DisablePermRelevance bool
}

// The §4.2 thresholds, used across the experiments.
const (
	// maxMissingFrac drops attributes with more missing values than this
	// (paper: 90%).
	maxMissingFrac = 0.9
	// nearUniqueFrac and highEntropyMin define the high-entropy filter: an
	// attribute is dropped when its distinct count is ≥ nearUniqueFrac of its
	// complete count and exceeds highEntropyMin (identifiers like wikiID).
	nearUniqueFrac = 0.9
	highEntropyMin = 20
	// fdThreshold is the normalized conditional-entropy threshold of the
	// approximate-functional-dependency test (logical dependencies on T/O).
	fdThreshold = 0.05
	// relevanceThreshold is the normalized-CMI threshold of the low-relevance
	// test ((O ⊥ E | C) and (O ⊥ E | C, T) ⇒ drop).
	relevanceThreshold = 0.02
	// permRelevanceTests is the number of draws of the permutation variant of
	// the low-relevance test, run for candidates that provide Permute: the
	// attribute is kept only if its marginal dependence on O beats a
	// source-granularity permutation null. This is what removes entity-level
	// attributes whose correlation with the outcome is pure entity-sampling
	// chance.
	permRelevanceTests = 19
	// maxPermRows bounds the rows of an input column whose null shuffles rows;
	// past it the null is skipped and the candidate kept.
	maxPermRows = 1_000_000
)

// PruneReason classifies why an attribute was pruned.
type PruneReason string

// Prune reasons (offline first, then online).
const (
	PruneConstant   PruneReason = "constant"
	PruneMissing    PruneReason = "mostly-missing"
	PruneUnique     PruneReason = "high-entropy"
	PruneFD         PruneReason = "logical-dependency"
	PruneIrrelevant PruneReason = "low-relevance"
)

// PruneStats summarizes a pruning pass.
type PruneStats struct {
	Input   int
	Kept    int
	Dropped map[PruneReason]int
}

func newPruneStats(input int) PruneStats {
	return PruneStats{Input: input, Dropped: make(map[PruneReason]int)}
}

// OfflinePruneCtx applies the across-queries filters (§4.2, "Preprocessing
// pruning"): constants, mostly-missing attributes, and near-unique
// identifiers. It does not need T or O and can run at ingestion time. It
// reports into tr (nil = no-op) and honours ctx: the per-candidate pass
// stops dispatching work once ctx is done and the call returns an error
// wrapping ctx.Err(). (Suffix and positional trace stay until a benchmark PR
// can edit the call in bench/pipeline.go; there is no non-ctx form.)
func OfflinePruneCtx(ctx context.Context, tr *obs.Trace, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	// The rows of each slot, counted once per link column's row→slot map.
	rowsPerSlot := make(map[*int32][]int32)
	for _, c := range cands {
		if c.Entity == nil {
			continue
		}
		if k := slotMapKey(c.Entity.Slots); rowsPerSlot[k] == nil {
			rowsPerSlot[k] = counting.RowsPerSlot(c.Entity.Slots)
		}
	}
	return prunePass(ctx, "offline", cands, func(_ int, c *Candidate) (PruneReason, error) {
		// What the rules read off the encoding: length, missing count and
		// cardinality. An entity form yields them as exact integers from slot
		// codes × rows per slot, without the row vector.
		var n, missing, distinct int
		if c.Entity != nil {
			ent, err := c.Entity.Enc()
			if err != nil {
				return "", err
			}
			n, missing, distinct = len(c.Entity.Slots), len(c.Entity.Slots), ent.Card
			for s, rows := range rowsPerSlot[slotMapKey(c.Entity.Slots)] {
				if ent.Codes[s] != bins.Missing {
					missing -= int(rows)
				}
			}
		} else {
			enc, err := c.Enc()
			if err != nil {
				return "", err
			}
			n, missing, distinct = enc.Len(), enc.MissingCount(), enc.Card
		}
		complete := n - missing
		if c.EntityCard > 0 {
			distinct = c.EntityCard
			complete = c.EntityComplete
		}
		switch {
		case n > 0 && float64(missing)/float64(n) > maxMissingFrac:
			return PruneMissing, nil
		case distinct <= 1:
			return PruneConstant, nil
		case distinct > highEntropyMin && complete > 0 &&
			float64(distinct) >= nearUniqueFrac*float64(complete):
			return PruneUnique, nil
		}
		return "", nil
	})
}

// prunePass runs judge over the candidates on parallel workers and splits
// them into the kept ones, in order, and drop counts per reason; judge
// returns "" to keep. Once ctx is done no further candidate is dispatched
// and the pass returns an error wrapping ctx.Err().
func prunePass(ctx context.Context, phase string, cands []*Candidate, judge func(i int, c *Candidate) (PruneReason, error)) ([]*Candidate, PruneStats, error) {
	stats := newPruneStats(len(cands))
	reasons := make([]PruneReason, len(cands))
	errs := make([]error, len(cands))
	parallelFor(ctx, len(cands), 0, func(i int) { reasons[i], errs[i] = judge(i, cands[i]) })
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("core: %s prune: %w", phase, err)
	}
	kept := make([]*Candidate, 0, len(cands))
	for i, c := range cands {
		switch {
		case errs[i] != nil:
			return nil, stats, errs[i]
		case reasons[i] == "":
			kept = append(kept, c)
		default:
			stats.Dropped[reasons[i]]++
		}
	}
	stats.Kept = len(kept)
	return kept, stats, nil
}

// slotMapKey identifies a row→slot map by its backing array, which is how
// the candidates of one link column are recognised as sharing it; the maps
// of a zero-row view are all the same empty one.
func slotMapKey(slots []int32) *int32 {
	if len(slots) == 0 {
		return nil
	}
	return &slots[0]
}

// OnlinePruneCtx applies the query-specific filters (§4.2, "Online
// pruning"): approximate functional dependencies with T or O (Lemma A.2 —
// conditioning on such attributes fakes a perfect explanation) and the
// low-relevance test (appendix Relevance Test). It reports CI-test and
// permutation counts into tr (nil = no-op; counters only: the per-candidate
// work runs on parallel workers, where spans are not safe to open) and
// honours ctx: the per-candidate pass (entity-level permutation nulls, FD
// tests, relevance tests, row-level nulls, in that order) stops dispatching
// work once ctx is done and the call returns an error wrapping ctx.Err(). (Same naming note as OfflinePruneCtx.)
func OnlinePruneCtx(ctx context.Context, tr *obs.Trace, t, o *bins.Encoded, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	return onlinePrune(ctx, tr, newSlotFolds(t, o), cands, opts)
}

// onlinePrune is OnlinePruneCtx folding its entity-form candidates from the
// link columns' (·, O, ·) and (·, O, T) cubes of folds, which Explain then
// hands on to MCIMR: its relevance pass and first iteration read the same
// cubes.
func onlinePrune(ctx context.Context, tr *obs.Trace, folds *slotFolds, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	t, o := folds.t, folds.o
	ht := infotheory.Entropy(t, nil)
	ho := infotheory.Entropy(o, nil)
	return prunePass(ctx, "online", cands, func(i int, c *Candidate) (PruneReason, error) {
		// A candidate is kept iff it passes the entity-level permutation null,
		// the FD rule and the relevance tests, each a pure function of the
		// candidate under its seed, so their order moves no verdict. The null
		// goes first: it reads only the slot codes and the (·, O, ·) cube's
		// cells, and the candidates it rejects (most extracted attributes)
		// then pay for no IPW fit, screen or finalize.
		var pair *counting.SlotCube
		if c.Entity != nil {
			pair = folds.cube(c.Entity.Slots, nil, o, nil)
			if !opts.DisablePermRelevance {
				ent, err := c.Entity.Encoding(c.Name)
				if err != nil {
					return "", err
				}
				if !entityPermDependent(tr, pair, c.Name, ent, permRelevanceTests, 0, 0x5eed+uint64(i)) {
					return PruneIrrelevant, nil
				}
			}
		}
		// One fused tally yields both approximate-FD ratios (Lemma A.2:
		// E ⇒ T or E ⇒ O fakes a perfect explanation) and the contingency
		// tallies of both low-relevance tests. An unweighted entity-form
		// candidate gets it by folding its link column's (·, O, T) and
		// (·, O, ·) cubes; every other candidate by a counting pass over the
		// rows, which reads an entity form's slot codes and slot weights
		// through its map.
		enc, w, err := c.vectors()
		if err != nil {
			return "", err
		}
		var sc *infotheory.OnlineScreen
		if c.Entity != nil && w == nil {
			sc = infotheory.ScreenSlots(folds.cube(c.Entity.Slots, nil, o, t), pair, enc)
		}
		if sc == nil {
			sc = infotheory.ScreenAll(o, t, enc, weightsOf(enc, w))
		}
		defer sc.Release()
		hOgivenE, hTgivenE := sc.FDEntropies()
		if (ht > 0 && hTgivenE/ht < fdThreshold) || (ho > 0 && hOgivenE/ho < fdThreshold) {
			return PruneFD, nil
		}
		// Low relevance: (O ⊥ E | C) and (O ⊥ E | C, T). The conditional
		// test is only needed when the (cheaper) marginal one fired.
		tr.Add(obs.CITests, 1)
		if sc.MarginalIndependent(relevanceThreshold) {
			tr.Add(obs.CITests, 1)
			independent := sc.CondIndependentGivenT(relevanceThreshold)
			if sc.CondWalked() {
				tr.Add(obs.CondWalks, 1)
			}
			if independent {
				return PruneIrrelevant, nil
			}
		}
		// An input column's null shuffles rows (one row pass per draw), so it
		// runs last, on the candidates nothing cheaper rejected; it is skipped
		// (the candidate kept) past maxPermRows.
		if !opts.DisablePermRelevance && c.Entity == nil && c.Permute != nil && enc.Len() <= maxPermRows {
			dependent, err := permSignificant(ctx, tr, PermResp, t, o, c, enc, nil, 0x5eed+uint64(i), 0, permRelevanceTests, 0, 1, nil, nil, 0)
			if err != nil {
				return "", err
			}
			if !dependent {
				return PruneIrrelevant, nil
			}
		}
		return "", nil
	})
}

// parallelFor runs fn(i) for i in [0, n) on up to workers goroutines
// (GOMAXPROCS when workers ≤ 0), with cooperative cancellation: once ctx is
// done no further indices are dispatched (in-flight fn calls run to
// completion — they are bounded per-item units of work). Callers must treat
// the outputs as incomplete whenever ctx.Err() != nil on return; the
// function itself returns nothing so partially filled result slices are
// never observed as complete.
func parallelFor(ctx context.Context, n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if i%cancelStride == 0 && ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case ch <- i:
		case <-done:
			break feed
		}
	}
	close(ch)
	wg.Wait()
}

// cancelStride is how many sequential iterations run between context checks
// in the single-worker fast path of parallelFor.
const cancelStride = 16
