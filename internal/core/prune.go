package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
)

// PruneOptions tunes the §4.2 pruning optimizations.
type PruneOptions struct {
	// MaxMissingFrac drops attributes with more missing values than this
	// (paper: 90%).
	MaxMissingFrac float64
	// NearUniqueFrac and HighEntropyMin define the high-entropy filter: an
	// attribute is dropped when its distinct count is ≥ NearUniqueFrac of
	// its complete count and exceeds HighEntropyMin (identifiers like
	// wikiID).
	NearUniqueFrac float64
	HighEntropyMin int
	// FDThreshold is the normalized conditional-entropy threshold of the
	// approximate-functional-dependency test (logical dependencies on T/O).
	FDThreshold float64
	// RelevanceThreshold is the normalized-CMI threshold of the
	// low-relevance test ((O ⊥ E | C) and (O ⊥ E | C, T) ⇒ drop).
	RelevanceThreshold float64
	// PermRelevance enables the permutation variant of the low-relevance
	// test for candidates that provide Permute: the attribute is kept only
	// if its marginal dependence on O beats a source-granularity
	// permutation null (B = PermRelevanceTests, default 19). This is what removes
	// entity-level attributes whose correlation with the outcome is pure
	// entity-sampling chance. Enabled by default below MaxPermRows rows.
	DisablePermRelevance bool
	PermRelevanceTests   int // default 19
	MaxPermRows          int // default 1_000_000
}

// DefaultPruneOptions returns the thresholds used across the experiments.
func DefaultPruneOptions() PruneOptions {
	return PruneOptions{
		MaxMissingFrac:     0.9,
		NearUniqueFrac:     0.9,
		HighEntropyMin:     20,
		FDThreshold:        0.05,
		RelevanceThreshold: 0.02,
		PermRelevanceTests: 19,
		MaxPermRows:        1_000_000,
	}
}

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
	return offlinePruneCached(ctx, tr, newRunCache(tr), cands, opts)
}

func offlinePruneCached(ctx context.Context, tr *obs.Trace, rc *runCache, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	stats := newPruneStats(len(cands))
	kept := make([]*Candidate, 0, len(cands))
	type verdict struct {
		keep   bool
		reason PruneReason
		err    error
	}
	verdicts := make([]verdict, len(cands))
	parallelFor(ctx, len(cands), 0, func(i int) {
		c := cands[i]
		enc, err := rc.enc(c)
		if err != nil {
			verdicts[i] = verdict{err: err}
			return
		}
		complete := enc.Len() - enc.MissingCount()
		distinct := enc.Card
		if c.EntityCard > 0 {
			distinct = c.EntityCard
			complete = c.EntityComplete
		}
		switch {
		case enc.MissingFraction() > opts.MaxMissingFrac:
			verdicts[i] = verdict{reason: PruneMissing}
		case distinct <= 1:
			verdicts[i] = verdict{reason: PruneConstant}
		case distinct > opts.HighEntropyMin && complete > 0 &&
			float64(distinct) >= opts.NearUniqueFrac*float64(complete):
			verdicts[i] = verdict{reason: PruneUnique}
		default:
			verdicts[i] = verdict{keep: true}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("core: offline prune: %w", err)
	}
	for i, v := range verdicts {
		if v.err != nil {
			return nil, stats, v.err
		}
		if v.keep {
			kept = append(kept, cands[i])
		} else {
			stats.Dropped[v.reason]++
		}
	}
	stats.Kept = len(kept)
	return kept, stats, nil
}

// OnlinePruneCtx applies the query-specific filters (§4.2, "Online
// pruning"): approximate functional dependencies with T or O (Lemma A.2 —
// conditioning on such attributes fakes a perfect explanation) and the
// low-relevance test (appendix Relevance Test). It reports CI-test and
// permutation counts into tr (nil = no-op; counters only: the per-candidate
// work runs on parallel workers, where spans are not safe to open) and
// honours ctx: the per-candidate pass (FD tests, relevance tests,
// permutation nulls) stops dispatching work once ctx is done and the call
// returns an error wrapping ctx.Err(). (Same naming note as OfflinePruneCtx.)
func OnlinePruneCtx(ctx context.Context, tr *obs.Trace, t, o *bins.Encoded, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	return onlinePruneCached(ctx, tr, newRunCache(tr), t, o, cands, opts)
}

func onlinePruneCached(ctx context.Context, tr *obs.Trace, rc *runCache, t, o *bins.Encoded, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	stats := newPruneStats(len(cands))
	type verdict struct {
		keep   bool
		reason PruneReason
		err    error
	}
	verdicts := make([]verdict, len(cands))
	ht := infotheory.Entropy(t, nil)
	ho := infotheory.Entropy(o, nil)
	parallelFor(ctx, len(cands), 0, func(i int) {
		c := cands[i]
		enc, err := rc.enc(c)
		if err != nil {
			verdicts[i] = verdict{err: err}
			return
		}
		w, err := rc.weights(c)
		if err != nil {
			verdicts[i] = verdict{err: err}
			return
		}
		// One fused counting pass yields both approximate-FD
		// ratios (Lemma A.2: E ⇒ T or E ⇒ O fakes a perfect explanation)
		// and the contingency tallies of both low-relevance tests.
		sc := infotheory.ScreenAll(o, t, enc, w)
		defer sc.Release()
		hOgivenE, hTgivenE := sc.FDEntropies()
		if (ht > 0 && hTgivenE/ht < opts.FDThreshold) || (ho > 0 && hOgivenE/ho < opts.FDThreshold) {
			verdicts[i] = verdict{reason: PruneFD}
			return
		}
		// Low relevance: (O ⊥ E | C) and (O ⊥ E | C, T). The conditional
		// test is only needed when the (cheaper) marginal one fired.
		tr.Add(obs.CITests, 1)
		if sc.MarginalIndependent(opts.RelevanceThreshold) {
			tr.Add(obs.CITests, 1)
			if sc.CondIndependentGivenT(opts.RelevanceThreshold) {
				verdicts[i] = verdict{reason: PruneIrrelevant}
				return
			}
		}
		// Permutation relevance: the dependence on O must beat a source-
		// granularity permutation null (kills entity-sampling chance).
		if !opts.DisablePermRelevance && (c.Permute != nil || c.FastMarginalPerm != nil) {
			b := opts.PermRelevanceTests
			if b <= 0 {
				b = 19
			}
			dependent, handled := false, false
			if c.FastMarginalPerm != nil {
				dependent, handled = c.FastMarginalPerm(o, b, 0, 0x5eed+uint64(i))
			}
			if !handled {
				if c.Permute == nil || enc.Len() > permBudget(opts) {
					dependent = true // cannot test affordably; keep
				} else {
					dependent, err = permDependent(ctx, tr, o, c, enc, nil, 0, b, 0, 1, 0x5eed+uint64(i))
					if err != nil {
						verdicts[i] = verdict{err: err}
						return
					}
				}
			}
			if !dependent {
				verdicts[i] = verdict{reason: PruneIrrelevant}
				return
			}
		}
		verdicts[i] = verdict{keep: true}
	})
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("core: online prune: %w", err)
	}
	kept := make([]*Candidate, 0, len(cands))
	for i, v := range verdicts {
		if v.err != nil {
			return nil, stats, v.err
		}
		if v.keep {
			kept = append(kept, cands[i])
		} else {
			stats.Dropped[v.reason]++
		}
	}
	stats.Kept = len(kept)
	return kept, stats, nil
}

func permBudget(opts PruneOptions) int {
	if opts.MaxPermRows <= 0 {
		return 1_000_000
	}
	return opts.MaxPermRows
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
