// Package loadgen drives mixed-priority explanation load against a nexusd
// endpoint — in-process behind httptest, or remote over TCP — and reports
// exact latency percentiles, throughput, admission-control outcomes and
// report-cache outcomes per tier.
//
// The schedule is deterministic: a seeded generator assigns each request
// index its query and priority tier up front, so two runs with the same
// Config issue the same request sequence regardless of worker timing. The
// workers pull indices from a shared counter (closed loop), or pace
// themselves against a global target rate (open loop, Config.Rate).
//
// loadgen is the measurement half of cmd/nexusload and of
// TestServeClosedLoopCounts at the repo root, which pins the
// schedule-invariant outcomes of a 16-client run; serving latency across
// commits is tracked by the benchmark's serve_mix workload
// (bench/README.md), not here.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Query is one explain request shape in the generated mix.
type Query struct {
	SQL       string
	Subgroups int
	Tau       float64
}

// Config drives one load run. Zero fields select the documented defaults.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8080" (required).
	BaseURL string
	// Client issues the requests (default: a dedicated client with
	// connection reuse; supply one to control transport limits).
	Client *http.Client
	// Requests is the total number of requests to issue (required).
	Requests int
	// Concurrency is the number of worker goroutines (default 8).
	Concurrency int
	// Rate, when > 0, paces the run at this many requests/second across
	// all workers (open loop); 0 issues requests as fast as workers
	// complete them (closed loop).
	Rate float64
	// BatchFraction is the probability a request is sent at batch priority
	// (0 = all interactive).
	BatchFraction float64
	// Queries is the mix each request draws from uniformly (required).
	Queries []Query
	// Seed fixes the schedule (default 1).
	Seed uint64
	// Timeout bounds each request client-side (0 = Client's own policy).
	Timeout time.Duration
}

// TierStats aggregates one tier's outcomes. Latency percentiles are exact
// (computed over all recorded samples, not a sketch) and cover successful
// requests only.
type TierStats struct {
	Sent     int
	OK       int
	Shed     int // 429 kind "shed" (admission control protecting interactive)
	Rejected int // 429 kind "queue_full"
	Errors   int // transport errors and any other non-2xx status

	// Cache outcomes, from the X-Nexus-Cache header of 200 responses.
	// CacheNone counts 200s without the header (cache disabled server-side).
	CacheHits   int
	CacheMisses int
	CacheShared int
	CacheNone   int

	P50, P90, P99, Max time.Duration
}

// CacheHitRatio is the fraction of successful requests served without a
// fresh computation (hit or shared), in [0,1]; 0 when nothing succeeded.
func (t TierStats) CacheHitRatio() float64 {
	if t.OK == 0 {
		return 0
	}
	return float64(t.CacheHits+t.CacheShared) / float64(t.OK)
}

// Result is one load run's aggregate outcome.
type Result struct {
	Interactive TierStats
	Batch       TierStats
	// Wall is the span from the first request issued to the last response.
	Wall time.Duration
}

// Sent / OK / Shed sum both tiers.
func (r *Result) Sent() int { return r.Interactive.Sent + r.Batch.Sent }
func (r *Result) OK() int   { return r.Interactive.OK + r.Batch.OK }
func (r *Result) Shed() int { return r.Interactive.Shed + r.Batch.Shed }

// ShedRate is the fraction of all requests refused by load shedding.
func (r *Result) ShedRate() float64 {
	if r.Sent() == 0 {
		return 0
	}
	return float64(r.Shed()) / float64(r.Sent())
}

// Throughput is successful requests per second of wall time.
func (r *Result) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.OK()) / r.Wall.Seconds()
}

// CacheHitRatio pools both tiers.
func (r *Result) CacheHitRatio() float64 {
	ok := r.OK()
	if ok == 0 {
		return 0
	}
	hits := r.Interactive.CacheHits + r.Interactive.CacheShared +
		r.Batch.CacheHits + r.Batch.CacheShared
	return float64(hits) / float64(ok)
}

// BenchMetrics flattens a result into nexusload's JSON report (-json).
// Top-level names are outcome counts — requests sent and OK per tier,
// shed, rejected, errors, "cache_misses" (one per distinct query shape
// under single-flight) and the two ratios derived from them — which, for
// a seeded Config sized inside the server's queue depths, repeat exactly
// across runs and machines. The hit/shared split depends on request
// interleaving, so only its sum ("cache_served") appears there.
// Everything timing-dependent — latency percentiles and the run total in
// nanoseconds, throughput in requests per second — is nested under
// "wall_ns".
func BenchMetrics(res *Result) map[string]any {
	served := res.Interactive.CacheHits + res.Interactive.CacheShared +
		res.Batch.CacheHits + res.Batch.CacheShared
	maxLat := res.Interactive.Max
	if res.Batch.Max > maxLat {
		maxLat = res.Batch.Max
	}
	return map[string]any{
		"requests_total":   res.Sent(),
		"interactive_sent": res.Interactive.Sent,
		"interactive_ok":   res.Interactive.OK,
		"batch_sent":       res.Batch.Sent,
		"batch_ok":         res.Batch.OK,
		"shed":             res.Shed(),
		"rejected":         res.Interactive.Rejected + res.Batch.Rejected,
		"errors":           res.Interactive.Errors + res.Batch.Errors,
		"cache_misses":     res.Interactive.CacheMisses + res.Batch.CacheMisses,
		"cache_served":     served,
		"shed_rate":        res.ShedRate(),
		"cache_hit_ratio":  res.CacheHitRatio(),
		"wall_ns": map[string]any{
			"total":           res.Wall.Nanoseconds(),
			"p50_interactive": res.Interactive.P50.Nanoseconds(),
			"p99_interactive": res.Interactive.P99.Nanoseconds(),
			"p50_batch":       res.Batch.P50.Nanoseconds(),
			"p99_batch":       res.Batch.P99.Nanoseconds(),
			"max_latency":     maxLat.Nanoseconds(),
			"throughput_rps":  res.Throughput(),
		},
	}
}

// tierAccum is one worker's private tally for one tier, merged after the
// run so the hot path takes no locks.
type tierAccum struct {
	TierStats
	lats []time.Duration
}

// explainRequest mirrors server.ExplainRequest (redeclared so loadgen can
// target a remote nexusd without importing the server).
type explainRequest struct {
	SQL       string  `json:"sql"`
	Subgroups int     `json:"subgroups,omitempty"`
	Tau       float64 `json:"tau,omitempty"`
	Priority  string  `json:"priority,omitempty"`
}

// Run executes the configured load and blocks until every request has
// resolved (or ctx ends, which stops issuing new requests and fails the
// in-flight ones).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL is required")
	}
	if cfg.Requests <= 0 {
		return nil, errors.New("loadgen: Requests must be > 0")
	}
	if len(cfg.Queries) == 0 {
		return nil, errors.New("loadgen: Queries must be non-empty")
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	if conc > cfg.Requests {
		conc = cfg.Requests
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	// Pre-marshal every request body: the schedule (query choice and tier
	// per index) is fixed before the first worker starts.
	type planned struct {
		body  []byte
		batch bool
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	plan := make([]planned, cfg.Requests)
	for i := range plan {
		q := cfg.Queries[rng.Intn(len(cfg.Queries))]
		batch := rng.Float64() < cfg.BatchFraction
		req := explainRequest{SQL: q.SQL, Subgroups: q.Subgroups, Tau: q.Tau}
		if batch {
			req.Priority = "batch"
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("loadgen: encoding request %d: %w", i, err)
		}
		plan[i] = planned{body: body, batch: batch}
	}

	url := cfg.BaseURL + "/v1/explain"
	var next atomic.Int64
	accums := make([][2]*tierAccum, conc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		acc := [2]*tierAccum{{}, {}}
		accums[w] = acc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Requests) || ctx.Err() != nil {
					return
				}
				p := plan[i]
				if cfg.Rate > 0 {
					due := start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				a := acc[0]
				if p.batch {
					a = acc[1]
				}
				issue(ctx, client, url, p.body, cfg.Timeout, a)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	res := &Result{Wall: wall}
	var ilats, blats []time.Duration
	for _, acc := range accums {
		merge(&res.Interactive, acc[0], &ilats)
		merge(&res.Batch, acc[1], &blats)
	}
	setPercentiles(&res.Interactive, ilats)
	setPercentiles(&res.Batch, blats)
	return res, nil
}

// issue sends one request and records its outcome into a.
func issue(ctx context.Context, client *http.Client, url string, body []byte, timeout time.Duration, a *tierAccum) {
	a.Sent++
	rctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		a.Errors++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		a.Errors++
		return
	}
	lat := time.Since(t0)
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		a.OK++
		a.lats = append(a.lats, lat)
		switch resp.Header.Get("X-Nexus-Cache") {
		case "hit":
			a.CacheHits++
		case "miss":
			a.CacheMisses++
		case "shared":
			a.CacheShared++
		default:
			a.CacheNone++
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	case http.StatusTooManyRequests:
		var eb struct {
			Kind string `json:"kind"`
		}
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Kind == "shed" {
			a.Shed++
		} else {
			a.Rejected++
		}
	default:
		a.Errors++
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
}

// merge folds one worker accumulator into the run total.
func merge(dst *TierStats, src *tierAccum, lats *[]time.Duration) {
	dst.Sent += src.Sent
	dst.OK += src.OK
	dst.Shed += src.Shed
	dst.Rejected += src.Rejected
	dst.Errors += src.Errors
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.CacheShared += src.CacheShared
	dst.CacheNone += src.CacheNone
	*lats = append(*lats, src.lats...)
}

// setPercentiles computes exact latency quantiles over all samples.
func setPercentiles(t *TierStats, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	t.P50 = quantile(lats, 0.50)
	t.P90 = quantile(lats, 0.90)
	t.P99 = quantile(lats, 0.99)
	t.Max = lats[len(lats)-1]
}

// quantile picks the nearest-rank quantile of a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
