// Package rpc is the one RPC substrate under the remote knowledge graph
// (kgremote / kgserve / cmd/kgd) and the scoring fleet (distremote /
// distworker). It owns every decision the two stacks share, so
// the protocol packages keep only their wire types and their own policy:
//
//   - client half (this file): one JSON attempt with a per-attempt timeout
//     and error classification, the seeded jittered backoff, the attempt
//     loop, and the chunked bounded-concurrency fan-out; lru.go holds the
//     generic LRU both sides cache with;
//   - server half (server.go): registry, slow log and in-flight gauge,
//     request-latency and seeded fault-injection middleware, body decode and
//     JSON reply, the /metrics, /debug/slow and /healthz routes, and Serve
//     with graceful drain;
//   - daemon half (daemon.go): the flags, pprof sidecar, SIGQUIT dump,
//     signal context and bind-then-log sequence the three daemons share.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"nexus/internal/obs"
	"nexus/internal/stats"
)

// ClientConfig configures a Client. Zero durations, Seed and HTTPClient
// select the defaults both protocol clients document (50ms / 2s backoff,
// 10s per attempt, seed 1, http.DefaultClient).
type ClientConfig struct {
	// Attempts is the total number of tries Retry spends on one call.
	Attempts int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryMax. The actual sleep is uniformly jittered over [d/2, d].
	RetryBase time.Duration
	RetryMax  time.Duration
	// Timeout bounds each individual HTTP attempt.
	Timeout time.Duration
	// Seed seeds the jitter RNG, making retry schedules reproducible.
	Seed       uint64
	HTTPClient *http.Client
	// Counters receives one tick of the counter named Requests per HTTP
	// attempt and one of Retries per re-attempt. Nil disables recording.
	Counters *obs.Counters
	Requests string
	Retries  string
	// AttemptSeconds records the latency of every HTTP attempt and
	// RetriesPerCall the re-attempts each Retry call spent; nil histograms
	// record nothing (obs no-op convention).
	AttemptSeconds *obs.Histogram
	RetriesPerCall *obs.Histogram
}

// Client issues JSON-over-HTTP requests under one retry, timeout and
// error-classification policy. Safe for concurrent use.
type Client struct {
	cfg ClientConfig

	mu  sync.Mutex // guards rng
	rng *stats.RNG
}

// NewClient returns a client for cfg.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 1
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return &Client{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
}

// StatusError is a non-200 reply. A handler on the server half returns one
// to pick the status it answers with; Post on the client half returns one
// for every status it is answered with. 4xx statuses are permanent (never
// retried), 5xx retryable.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d %s: %s", e.Code, http.StatusText(e.Code), e.Body)
}

// StatusCode returns the HTTP status err carries, 0 if it carries none.
func StatusCode(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// permanentError marks a failure that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as not worth retrying: Retry returns it at once. Post
// already marks undecodable replies; callers mark replies that decode but
// break their protocol's invariants.
func Permanent(err error) error { return &permanentError{err: err} }

func isPermanent(err error) bool {
	var perm *permanentError
	if errors.As(err, &perm) {
		return true
	}
	code := StatusCode(err)
	return code >= 400 && code < 500
}

// Post issues one JSON attempt — in as the request body, the 200 reply
// decoded into out — bounded by the per-attempt timeout. Transport errors,
// timeouts and 5xx replies come back retryable; 4xx replies and malformed
// payloads come back permanent.
func (c *Client) Post(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return Permanent(fmt.Errorf("encode request: %w", err))
	}
	c.cfg.Counters.Add(c.cfg.Requests, 1)
	defer c.cfg.AttemptSeconds.RecordSince(time.Now())
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status alone classifies
		return &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(msg))}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return Permanent(fmt.Errorf("decode response: %w", err))
	}
	return nil
}

// Retry calls try (attempt is 0-based) until it succeeds, fails permanently,
// ctx ends or the attempts run out, sleeping the backoff between tries. A
// cancelled ctx is never retried and is reported errors.Is-matchable; a
// permanent failure is returned as try reported it.
func (c *Client) Retry(ctx context.Context, try func(attempt int) error) error {
	retries := 0
	defer func() { c.cfg.RetriesPerCall.Record(int64(retries)) }()
	var last error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			retries = attempt
			c.cfg.Counters.Add(c.cfg.Retries, 1)
			if !sleep(ctx, c.delay(attempt)) {
				break
			}
		}
		if last = try(attempt); last == nil {
			return nil
		}
		if ctx.Err() != nil {
			break
		}
		if isPermanent(last) {
			return last
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w (last error: %v)", err, last)
	}
	return fmt.Errorf("giving up after %d attempts: %w", c.cfg.Attempts, last)
}

// delay returns the jittered exponential backoff before the given attempt
// (1-based): uniform over [d/2, d], which keeps retries from synchronizing
// without collapsing the delay to zero.
func (c *Client) delay(attempt int) time.Duration {
	d := c.cfg.RetryBase << (attempt - 1)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// sleep waits d, reporting false if ctx ended first.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ForEachChunk runs fn over [0,n) in chunks of size on at most limit
// goroutines, returning the first error and cancelling the rest. seq is
// the chunk ordinal. A batch that fits one chunk runs on the caller's
// goroutine.
func ForEachChunk(ctx context.Context, n, size, limit int, fn func(ctx context.Context, lo, hi, seq int) error) error {
	if n == 0 {
		return nil
	}
	if n <= size {
		return fn(ctx, 0, n, 0)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, limit)
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
dispatch:
	for lo, seq := 0, 0; lo < n; lo, seq = lo+size, seq+1 {
		select {
		case sem <- struct{}{}:
		case <-cctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(lo, hi, seq int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(cctx, lo, hi, seq); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(lo, min(lo+size, n), seq)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// A caller's ctx that ended mid-dispatch leaves chunks unrun without
	// any fn having failed; report it rather than a partial success.
	return ctx.Err()
}
