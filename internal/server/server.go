// Package server implements nexusd, the long-running HTTP explanation
// service over a nexus.Session:
//
//	POST /v1/explain  — aggregate query in, JSON explanation out
//	GET  /healthz      — liveness (503 while draining)
//	GET  /metrics      — Prometheus text exposition (histograms, gauges,
//	                     counters; see docs/API.md "Metrics")
//	GET  /debug/slow   — the N slowest explanations over the configured
//	                     threshold, with their full span traces
//
// Each explanation runs on the goroutine of the request that asked for it.
// At most Workers run at once and up to QueueDepth more wait for a slot, in
// arrival order; a request past that bound is answered 429 (backpressure)
// rather than accepted as unbounded work. Leftover "priority" and "async"
// fields from older clients are ignored.
// When a reportcache.Cache is configured, identical requests (after query
// canonicalization) are answered from the cache — single-flight, with an
// X-Nexus-Cache: hit|miss|shared header — without occupying a worker slot.
// Every explanation runs under its request's context: per-request deadlines
// (timeout_ms, capped by the server maximum) map to 408, client disconnects
// map to 499, and graceful shutdown (Serve returns once its context is
// cancelled, e.g. by SIGTERM) lets running and waiting requests finish
// within the drain bound, then drops their connections, which cancels them.
// Concurrent requests over the same dataset context share one KG extraction
// through the session's nexus.ExtractionCache.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"nexus"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/rpc"
	"nexus/internal/subgroups"
)

// Server-level counter names, reported into Config.Metrics and exported via
// GET /metrics as nexusd_<name>_total (alongside the extraction-cache
// counters obs.ExtractCacheHits / obs.ExtractCacheMisses when the session's
// cache shares the same counter set).
const (
	// CtrRequests counts POST /v1/explain requests accepted for execution.
	CtrRequests = "requests_total"
	// CtrRejected counts requests refused with 429 because the queue was
	// full.
	CtrRejected = "jobs_rejected"
	// CtrCompleted / CtrFailed / CtrTimeout / CtrCancelled count how
	// accepted requests end: success, non-context error (400), deadline
	// exceeded (408), and client disconnect or shutdown (499).
	CtrCompleted = "jobs_completed"
	CtrFailed    = "jobs_failed"
	CtrTimeout   = "jobs_timeout"
	CtrCancelled = "jobs_cancelled"
	// CtrEncodeErrors counts responses whose JSON encoding failed mid-write
	// (client gone, marshal error). The body is already partially written by
	// then, so the error cannot reach the client — the counter and the
	// server error log are where it surfaces.
	CtrEncodeErrors = "encode_errors"
)

// maxSubgroups caps the per-request subgroups k: Algorithm 2 ranks groups by
// size, and past the first twenty a request is asking for the small ones at
// the full cost of the lattice search.
const maxSubgroups = 20

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// recorded when the client went away before the explanation finished.
const StatusClientClosedRequest = 499

// Config configures a Server. Zero fields select the documented defaults.
type Config struct {
	// Session answers the explanations. Its catalog and linker must not be
	// mutated once the server starts (required by the extraction cache and
	// by concurrent linking).
	Session *nexus.Session
	// Workers bounds concurrently running explanations (default
	// GOMAXPROCS, capped at 8 — explanations parallelize internally).
	Workers int
	// QueueDepth bounds requests waiting for a worker; a request that finds
	// it full answers 429 (default 4 × Workers).
	QueueDepth int
	// ReportCache, when non-nil, memoizes whole explanation responses:
	// identical requests (after canonicalization, see
	// nexus.Session.ReportKey) are served the byte-identical response of
	// the first computation, single-flight, with an X-Nexus-Cache header.
	// Nil disables response caching.
	ReportCache *reportcache.Cache
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 60s). MaxTimeout caps client-requested timeouts
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Metrics receives the server counters. Sharing this set with the
	// session's nexus.ExtractionCache makes cache traffic visible on
	// /metrics too. Nil allocates a private set.
	Metrics *obs.Counters
	// Registry collects the serving metrics GET /metrics renders: request
	// latency, queue wait and run time histograms, per-stage pipeline
	// timings, and live queue/worker gauges. Nil builds one over Metrics,
	// so /metrics is always available; pass a shared registry to co-host
	// several metric owners in one process. When both Registry and Metrics
	// are set they should share the counter set (Registry's counters win
	// for /metrics).
	Registry *obs.Registry
	// SlowThreshold enables slow-request capture: every explanation at or
	// over the threshold is offered to a bounded log of the SlowKeep
	// slowest (default 32), each retaining its full span trace — served at
	// GET /debug/slow and dumped on SIGQUIT by nexusd. Zero disables
	// capture.
	SlowThreshold time.Duration
	SlowKeep      int
	// ErrorLog receives server-side failures that cannot reach the client,
	// e.g. response-encode errors. Nil discards them (they still count in
	// CtrEncodeErrors).
	ErrorLog *log.Logger
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry(c.Metrics)
	}
	if c.Metrics == nil {
		c.Metrics = c.Registry.Counters()
	}
	if c.SlowKeep <= 0 {
		c.SlowKeep = 32
	}
}

// Server is the HTTP explanation service. Construct with New, serve with
// Serve (which blocks until its context is cancelled, then drains).
type Server struct {
	cfg      Config
	metrics  *obs.Counters
	registry *obs.Registry
	cache    *reportcache.Cache

	// A request holds an admitted slot from admission to its answer
	// (Workers + QueueDepth slots; none free answers 429) and a running slot
	// while its explanation executes (Workers slots). Senders blocked on
	// running are woken in arrival order, so the wait for a worker is FIFO.
	admitted chan struct{}
	running  chan struct{}

	// Serving-metric instruments, resolved once at construction so the
	// per-request path never touches the registry's lock.
	stages    *obs.StageSink // per-stage pipeline_stage_seconds
	queueWait *obs.Histogram // job_queue_wait_seconds (admitted → running)
	runTime   *obs.Histogram // job_run_seconds (running → finished)
	slow      *obs.SlowLog   // nil unless Config.SlowThreshold > 0

	seq      atomic.Uint64 // numbers explanations for their trace and slow-log ids
	draining atomic.Bool
}

// New builds a Server over the session. The config's Session must be
// non-nil.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		panic("server: Config.Session is required")
	}
	cfg.applyDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   cfg.Metrics,
		registry:  cfg.Registry,
		cache:     cfg.ReportCache,
		admitted:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		running:   make(chan struct{}, cfg.Workers),
		stages:    obs.NewStageSink(cfg.Registry),
		queueWait: cfg.Registry.Histogram("job_queue_wait_seconds", obs.UnitSeconds),
		runTime:   cfg.Registry.Histogram("job_run_seconds", obs.UnitSeconds),
		slow:      obs.NewSlowLog(cfg.SlowThreshold, cfg.SlowKeep),
	}
	// Level gauges read live server state at scrape time. The two lengths
	// are read one after the other, so a request moving between them can
	// make the difference dip below zero for a moment.
	s.registry.SetGaugeFunc("workers_busy", func() int64 { return int64(len(s.running)) })
	s.registry.SetGaugeFunc("job_queue_depth", func() int64 { return int64(max(len(s.admitted)-len(s.running), 0)) })
	return s
}

// Metrics exposes the server's counter set (rendered as counters on /metrics).
func (s *Server) Metrics() *obs.Counters { return s.metrics }

// Registry exposes the server's metric registry (the one /metrics renders).
func (s *Server) Registry() *obs.Registry { return s.registry }

// SlowLog exposes the slow-request capture (nil when disabled), e.g. for
// nexusd's SIGQUIT dump.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Handler returns the service's HTTP handler. Every route is wrapped in
// the request-latency middleware, so http_request_seconds{route,outcome}
// covers the whole surface, including the metrics endpoint itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, rpc.Instrument(s.registry, label, h))
	}
	route("POST /v1/explain", "explain", s.handleExplain)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /metrics", "metrics", rpc.MetricsHandler(s.registry, "nexusd").ServeHTTP)
	route("GET /debug/slow", "slow", rpc.SlowHandler(s.slow).ServeHTTP)
	return mux
}

// Serve accepts connections on ln until ctx is cancelled (the caller
// typically derives ctx from SIGTERM via signal.NotifyContext), then
// gracefully drains: new explanation requests are refused with 503 and the
// HTTP server shuts down once every running and waiting request has been
// answered. Requests still open after drainTimeout have their connections
// closed, which cancels their explanations, and Serve returns the timeout
// error. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	return rpc.Serve(ctx, ln, s.Handler(), drainTimeout, func(context.Context) error {
		s.draining.Store(true)
		return nil
	})
}

// explain answers one request under ctx. It is refused with 429 when no
// admitted slot is free, then waits for a running slot — giving up with
// 408/499 when ctx ends first. Each run gets its own short-lived trace
// (obs.WithTrace) whose counters are the server's shared set: span durations
// feed the per-stage pipeline histograms through the StageSink, and — when
// slow capture is on — the full span stream is buffered so an over-threshold
// run lands in the slow log with its trace attached.
func (s *Server) explain(ctx context.Context, req ExplainRequest) (*ExplainResponse, *httpError) {
	select {
	case s.admitted <- struct{}{}:
	default:
		s.metrics.Add(CtrRejected, 1)
		return nil, &httpError{code: http.StatusTooManyRequests, kind: "queue_full", msg: "job queue is full, retry later"}
	}
	defer func() { <-s.admitted }()
	s.metrics.Add(CtrRequests, 1)
	admitted := time.Now()
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		return nil, s.failed(ctx.Err())
	}
	defer func() { <-s.running }()
	s.queueWait.RecordSince(admitted)
	start := time.Now()

	id := "j" + strconv.FormatUint(s.seq.Add(1), 10)
	tr := obs.NewWithCounters("explain "+id, s.metrics)
	tr.AddSink(s.stages)
	var capture *obs.CaptureSink
	if s.slow != nil {
		capture = &obs.CaptureSink{}
		tr.AddSink(capture)
	}
	ctx = obs.WithTrace(ctx, tr)

	rep, err := s.cfg.Session.ExplainCtx(ctx, req.SQL)
	var groups []subgroups.Group
	var gstats subgroups.Stats
	if err == nil && req.Subgroups > 0 {
		groups, gstats, err = rep.SubgroupsCtx(ctx, req.Subgroups, req.Tau)
	}
	elapsed := time.Since(start)
	s.runTime.RecordDuration(elapsed)
	tr.Close() // ends the root span, flushing it to the capture sink
	if capture != nil {
		detail := req.SQL
		if err != nil {
			detail += " — error: " + err.Error()
		}
		s.slow.Record(obs.SlowEntry{
			ID:     id,
			Detail: detail,
			Start:  start,
			DurNS:  int64(elapsed),
			Events: capture.Events(),
		})
	}
	if err != nil {
		return nil, s.failed(err)
	}
	s.metrics.Add(CtrCompleted, 1)
	return buildResponse(rep, groups, gstats, req.Subgroups > 0, elapsed), nil
}

// failed counts an accepted request that ended in err and returns its wire
// error.
func (s *Server) failed(err error) *httpError {
	code, kind, counter := classify(err)
	s.metrics.Add(counter, 1)
	return &httpError{code: code, kind: kind, msg: err.Error()}
}

// classify maps a pipeline error to its HTTP status, error kind and counter:
// deadline → 408, cancellation → 499, anything else (parse errors, unknown
// tables/columns) → 400.
func classify(err error) (code int, kind, counter string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "timeout", CtrTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "cancelled", CtrCancelled
	default:
		return http.StatusBadRequest, "bad_request", CtrFailed
	}
}

// CacheHeader is the response header reporting how the report cache
// answered a request: "hit" (stored bytes served), "miss" (this request
// computed and filled the cache) or "shared" (the request joined another
// request's in-flight computation). Absent when the cache is disabled or
// not applicable (unparsable query).
const CacheHeader = "X-Nexus-Cache"

// httpError carries an HTTP status and error-envelope kind through the
// report cache's compute function, so admission refusals and pipeline
// failures keep their wire classification across the single-flight
// boundary.
type httpError struct {
	code int
	kind string
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// handleExplain answers a request with its explanation — through the report
// cache when one is configured.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is shutting down")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	var req ExplainRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", `"sql" is required`)
		return
	}
	if req.Subgroups > maxSubgroups {
		req.Subgroups = maxSubgroups
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamp in milliseconds: past about 9.2e12 ms the Duration product
		// overflows to a negative timeout.
		timeout = time.Duration(min(int64(req.TimeoutMS), s.cfg.MaxTimeout.Milliseconds())) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	// The explanation runs under the request's context, so a disconnected
	// client — or a drain past its bound, which closes the connection —
	// cancels the work. The report cache tells a leader that failed on this
	// context's deadline or disconnect from one whose failure its waiters
	// should share.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if s.cache != nil {
		if key, err := s.cfg.Session.ReportKey(req.SQL, req.Subgroups, req.Tau); err == nil {
			s.explainCached(ctx, w, key, req)
			return
		}
		// Unparsable queries fall through: the pipeline reports them as
		// proper 400s, and failures are never cacheable anyway.
	}
	resp, herr := s.explain(ctx, req)
	if herr != nil {
		s.writeError(w, herr.code, herr.kind, herr.msg)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// explainCached answers a request through the report cache: single-flight
// per key, serving stored bytes on a hit. The stored bytes are exactly what
// writeJSON would have produced for the cold computation (MarshalIndent
// plus the encoder's trailing newline), so a hit is byte-identical to the
// miss that filled it. Failures — admission refusals, pipeline errors, a
// waiter's own context ending — are never stored (the cache evicts on
// error) and keep their HTTP classification; a 408/499 earned by the
// leading request's own ctx is not shared with the requests that joined it
// (they recompute, see sfcache).
func (s *Server) explainCached(ctx context.Context, w http.ResponseWriter, key string, req ExplainRequest) {
	data, outcome, err := s.cache.Get(ctx, key, func() ([]byte, error) {
		resp, herr := s.explain(ctx, req)
		if herr != nil {
			return nil, herr
		}
		buf, merr := json.MarshalIndent(resp, "", "  ")
		if merr != nil {
			return nil, &httpError{code: http.StatusInternalServerError, kind: "internal", msg: "encoding response: " + merr.Error()}
		}
		return append(buf, '\n'), nil
	})
	w.Header().Set(CacheHeader, outcome.String())
	if err != nil {
		var herr *httpError
		if errors.As(err, &herr) {
			s.writeError(w, herr.code, herr.kind, herr.msg)
			return
		}
		// Not an httpError: this waiter's own context ended while sharing
		// an in-flight computation.
		code, kind, _ := classify(err)
		s.writeError(w, code, kind, err.Error())
		return
	}
	s.writeRaw(w, http.StatusOK, data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeJSON writes v as the response body. Encoding can fail after the
// status line and part of the body are on the wire (client disconnect,
// marshal error), where no error response is possible any more — so the
// failure is counted (CtrEncodeErrors) and logged instead of dropped.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.metrics.Add(CtrEncodeErrors, 1)
		s.logf("server: encoding %d response: %v", code, err)
	}
}

// writeRaw writes pre-encoded JSON bytes (a report-cache entry) as the
// response body.
func (s *Server) writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.metrics.Add(CtrEncodeErrors, 1)
		s.logf("server: writing %d response: %v", code, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, kind, msg string) {
	s.writeJSON(w, code, errorBody{Error: msg, Kind: kind, Code: code})
}

// logf writes to the configured error log (discarded when unset).
func (s *Server) logf(format string, args ...any) {
	if s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf(format, args...)
	}
}
