// Package distremote implements core.Scorer over the distwire HTTP
// protocol: the coordinator half of the distributed scoring fleet. It
// partitions each scoring call into deterministic work units (candidate
// chunks, permutation-seed blocks), dispatches them to the
// worker fleet with bounded concurrency, and merges the replies in serial
// argument order — so the assembled result is byte-identical to the
// in-process core.Local oracle.
//
// The fault ladder, per unit:
//
//  1. Retry with failover: a failed attempt (HTTP 5xx, transport error,
//     per-attempt timeout) moves to the next worker after a seeded,
//     jittered exponential backoff. An "unknown dataset" 404 re-registers
//     and retries in place without consuming an attempt.
//  2. Local fallback: a unit that exhausts MaxAttempts (e.g. every worker
//     is dead) is computed in-process with the same core.Local functions
//     the workers run — the explanation always completes, and completes
//     identically.
//
// Effort is observable on the obs counters dist_units / dist_retries /
// dist_fallbacks / dist_http_requests.
package distremote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/core"
	"nexus/internal/distwire"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

// Options configures a Scorer. The zero value selects sane defaults.
type Options struct {
	// ChunkSize caps the items per work unit: candidates per relevance
	// unit, seeds per permutation block.
	// Default 8 — MCIMR batches are small and latency-bound, so small
	// units spread across the fleet beat large units on one worker.
	ChunkSize int
	// MaxInflight bounds concurrent HTTP requests across all calls
	// (default 8), and the unit goroutines of each call. The speculative
	// MCIMR consider loop issues overlapping PermBlock calls; the request
	// bound is shared so a fleet of 2 workers is not stampeded by 8
	// coordinator goroutines.
	MaxInflight int
	// MaxAttempts is the number of attempts per unit before the local
	// fallback (default 3). Attempts rotate through the fleet, so on a
	// 2-worker fleet attempt 3 lands back on the first worker.
	MaxAttempts int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryMax, jittered over [d/2, d]. Defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Timeout bounds each individual HTTP attempt. Default 10s.
	Timeout time.Duration
	// Seed seeds the jitter RNG, making retry schedules reproducible.
	// Default 1.
	Seed uint64
	// Parallelism bounds the local fallback's scoring goroutines (default
	// GOMAXPROCS).
	Parallelism int
	// DisableFallback makes a unit that exhausts its attempts fail the
	// call instead of computing locally (tests).
	DisableFallback bool
	// HTTPClient overrides the transport (tests). Default http.DefaultClient.
	HTTPClient *http.Client
	// Counters receives dist_units / dist_retries / dist_fallbacks /
	// dist_http_requests. Nil disables recording.
	Counters *obs.Counters
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 8
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 8
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	return o
}

// Scorer is a core.Scorer backed by a fleet of distworker servers. Safe for
// concurrent use.
type Scorer struct {
	workers []string
	opts    Options
	local   core.Local
	sem     chan struct{} // bounds in-flight HTTP requests across all calls
	rpc     *rpc.Client   // attempt, timeout, retry and backoff policy

	dmu      sync.Mutex
	datasets map[string]*dsState // fingerprint → registration state
}

// Statically assert the seam contract.
var _ core.Scorer = (*Scorer)(nil)

// dsState tracks one dataset's wire form and which workers hold it.
type dsState struct {
	ds         distwire.Dataset
	mu         sync.Mutex
	registered map[string]bool // worker base URL → registered
}

// New returns a Scorer for the given worker base URLs (e.g.
// "http://host:7080"). It panics on an empty fleet — a coordinator with no
// workers should use core.Local directly.
func New(workers []string, opts Options) *Scorer {
	if len(workers) == 0 {
		panic("distremote: no workers")
	}
	opts = opts.withDefaults()
	ws := make([]string, len(workers))
	for i, w := range workers {
		ws[i] = strings.TrimRight(w, "/")
	}
	return &Scorer{
		workers: ws,
		opts:    opts,
		local:   core.Local{Parallelism: opts.Parallelism},
		sem:     make(chan struct{}, opts.MaxInflight),
		rpc: rpc.NewClient(rpc.ClientConfig{
			Attempts:   opts.MaxAttempts,
			RetryBase:  opts.RetryBase,
			RetryMax:   opts.RetryMax,
			Timeout:    opts.Timeout,
			Seed:       opts.Seed,
			HTTPClient: opts.HTTPClient,
			Counters:   opts.Counters,
			Requests:   obs.DistHTTPRequests,
			Retries:    obs.DistRetries,
		}),
		datasets: make(map[string]*dsState),
	}
}

// Workers returns the fleet's base URLs.
func (s *Scorer) Workers() []string { return append([]string(nil), s.workers...) }

// state returns (building if needed) the registration state for fp. The
// map is bounded: when it outgrows a handful of live contexts, stale
// entries are dropped wholesale — the only cost of losing one is a
// re-registration.
func (s *Scorer) state(fp string, build func() distwire.Dataset) *dsState {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if st, ok := s.datasets[fp]; ok {
		return st
	}
	if len(s.datasets) >= 16 {
		s.datasets = make(map[string]*dsState)
	}
	st := &dsState{ds: build(), registered: make(map[string]bool)}
	s.datasets[fp] = st
	return st
}

// Relevance implements core.Scorer: candidate chunks fan out across the
// fleet; replies merge by index.
func (s *Scorer) Relevance(ctx context.Context, sc *core.ScoreContext, cands []int) ([]float64, error) {
	if len(cands) == 0 {
		return []float64{}, nil
	}
	st := s.state(sc.Fingerprint(), func() distwire.Dataset { return distwire.FromScoreContext(sc) })
	out := make([]float64, len(cands))
	err := rpc.ForEachChunk(ctx, len(cands), s.opts.ChunkSize, s.opts.MaxInflight, func(ctx context.Context, lo, hi, seq int) error {
		unit := distwire.Unit{Kind: distwire.KindRelevance, Cands: cands[lo:hi]}
		res, err := s.execUnit(ctx, st, unit, seq, hi-lo, false)
		if err != nil {
			vals, ferr := s.fallback(ctx, err, func(fctx context.Context) (distwire.UnitResult, error) {
				v, e := s.local.Relevance(fctx, sc, cands[lo:hi])
				return distwire.UnitResult{Values: v}, e
			})
			if ferr != nil {
				return ferr
			}
			res = vals
		}
		copy(out[lo:hi], res.Values)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PermBlock implements core.Scorer: the seed schedule splits into blocks,
// each evaluated wherever with the block-local early exit (unevaluated
// seeds stay false, exactly like the in-process early exit — the verdict
// derived from the counts is deterministic either way).
func (s *Scorer) PermBlock(ctx context.Context, sc *core.ScoreContext, spec core.PermSpec) ([]bool, int, error) {
	if len(spec.Seeds) == 0 {
		return nil, 0, nil
	}
	st := s.state(sc.Fingerprint(), func() distwire.Dataset { return distwire.FromScoreContext(sc) })
	var given *distwire.Column
	if spec.Given != nil {
		g := distwire.FromEncoded(spec.Given)
		given = &g
	}
	exceed := make([]bool, len(spec.Seeds))
	var ran int64
	err := rpc.ForEachChunk(ctx, len(spec.Seeds), s.opts.ChunkSize, s.opts.MaxInflight, func(ctx context.Context, lo, hi, seq int) error {
		unit := distwire.Unit{
			Kind: distwire.KindPerm, Cand: spec.Cand, Op: string(spec.Op),
			Observed: spec.Observed, Seeds: spec.Seeds[lo:hi], Allow: spec.Allow, Given: given,
		}
		res, err := s.execUnit(ctx, st, unit, seq, hi-lo, true)
		if err != nil {
			sub := spec
			sub.Seeds = spec.Seeds[lo:hi]
			res, err = s.fallback(ctx, err, func(fctx context.Context) (distwire.UnitResult, error) {
				ex, r, e := s.local.PermBlock(fctx, sc, sub)
				return distwire.UnitResult{Exceed: ex, Ran: r}, e
			})
			if err != nil {
				return err
			}
		}
		copy(exceed[lo:hi], res.Exceed)
		atomic.AddInt64(&ran, int64(res.Ran))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return exceed, int(ran), nil
}

// fallback computes a failed unit locally (rung 2 of the ladder), unless
// fallback is disabled or the failure was a cancellation — cancellation
// must propagate, not be papered over with local compute.
func (s *Scorer) fallback(ctx context.Context, cause error, compute func(context.Context) (distwire.UnitResult, error)) (distwire.UnitResult, error) {
	if ctx.Err() != nil {
		return distwire.UnitResult{}, cause
	}
	if s.opts.DisableFallback {
		return distwire.UnitResult{}, cause
	}
	s.opts.Counters.Add(obs.DistFallbacks, 1)
	return compute(ctx)
}

// errUnknownDataset is the typed form of a 404 "unknown dataset" reply.
var errUnknownDataset = errors.New("unknown dataset")

// execUnit runs one unit through the retry/failover ladder. seq, the
// unit's ordinal within its call, is the deterministic basis for worker
// placement: attempt a goes to worker (seq+a) mod fleet size.
// wantLen/wantExceed describe the expected reply shape (index alignment is
// the merge invariant, so a short reply is a permanent error).
func (s *Scorer) execUnit(ctx context.Context, st *dsState, unit distwire.Unit, seq, wantLen int, wantExceed bool) (res distwire.UnitResult, err error) {
	s.opts.Counters.Add(obs.DistUnits, 1)
	err = s.rpc.Retry(ctx, func(attempt int) (err error) {
		worker := s.workers[(seq+attempt)%len(s.workers)]
		res, err = s.scoreOn(ctx, st, worker, unit, wantLen, wantExceed)
		return err
	})
	if err != nil {
		return distwire.UnitResult{}, fmt.Errorf("distremote: unit failed: %w", err)
	}
	return res, nil
}

// scoreOn registers the dataset with the worker if needed, posts the unit,
// and handles the unknown-dataset reply (worker restarted or evicted the
// dataset: re-register and retry once, in place).
func (s *Scorer) scoreOn(ctx context.Context, st *dsState, worker string, unit distwire.Unit, wantLen int, wantExceed bool) (distwire.UnitResult, error) {
	if err := s.ensureRegistered(ctx, st, worker); err != nil {
		return distwire.UnitResult{}, err
	}
	res, err := s.postScore(ctx, worker, st.ds.Fingerprint, unit, wantLen, wantExceed)
	if errors.Is(err, errUnknownDataset) {
		st.mu.Lock()
		delete(st.registered, worker)
		st.mu.Unlock()
		if err = s.ensureRegistered(ctx, st, worker); err != nil {
			return distwire.UnitResult{}, err
		}
		res, err = s.postScore(ctx, worker, st.ds.Fingerprint, unit, wantLen, wantExceed)
	}
	return res, err
}

// ensureRegistered posts the dataset to the worker unless it already holds
// it. The per-dataset mutex is held across the POST so concurrent units
// don't re-ship a multi-megabyte dataset in parallel.
func (s *Scorer) ensureRegistered(ctx context.Context, st *dsState, worker string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.registered[worker] {
		return nil
	}
	var resp distwire.RegisterResponse
	if err := s.post(ctx, worker+distwire.PathDataset, distwire.RegisterRequest{Dataset: st.ds}, &resp); err != nil {
		return fmt.Errorf("register dataset %s on %s: %w", st.ds.Fingerprint, worker, err)
	}
	st.registered[worker] = true
	return nil
}

// postScore posts one single-unit score request and validates the reply
// shape against the merge invariant.
func (s *Scorer) postScore(ctx context.Context, worker, fp string, unit distwire.Unit, wantLen int, wantExceed bool) (distwire.UnitResult, error) {
	var resp distwire.ScoreResponse
	err := s.post(ctx, worker+distwire.PathScore, distwire.ScoreRequest{Fingerprint: fp, Units: []distwire.Unit{unit}}, &resp)
	if err != nil {
		return distwire.UnitResult{}, err
	}
	if len(resp.Results) != 1 {
		return distwire.UnitResult{}, rpc.Permanent(fmt.Errorf("%s returned %d results for 1 unit", worker, len(resp.Results)))
	}
	res := resp.Results[0]
	if wantExceed {
		if len(res.Exceed) != wantLen {
			return distwire.UnitResult{}, rpc.Permanent(fmt.Errorf("%s returned %d exceed flags, want %d", worker, len(res.Exceed), wantLen))
		}
	} else if len(res.Values) != wantLen {
		return distwire.UnitResult{}, rpc.Permanent(fmt.Errorf("%s returned %d values, want %d", worker, len(res.Values), wantLen))
	}
	return res, nil
}

// post issues one JSON HTTP attempt (no internal retry — the attempt loop
// with worker failover lives in execUnit), bounded by the shared in-flight
// semaphore.
func (s *Scorer) post(ctx context.Context, url string, in, out any) error {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.sem }()
	err := s.rpc.Post(ctx, url, in, out)
	if rpc.StatusCode(err) == http.StatusNotFound && strings.Contains(err.Error(), "unknown dataset") {
		// %v drops the 4xx's permanence: re-registering fixes this one.
		return fmt.Errorf("%w: %v", errUnknownDataset, err)
	}
	return err
}
