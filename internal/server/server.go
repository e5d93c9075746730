// Package server implements nexusd, the long-running HTTP explanation
// service over a nexus.Session:
//
//	POST /v1/explain  — aggregate query in, JSON explanation out (or a job
//	                    id when the request asks for async execution)
//	GET  /v1/jobs/{id} — status/result of an async job
//	GET  /healthz      — liveness (503 while draining)
//	GET  /metrics      — Prometheus text exposition (histograms, gauges,
//	                     counters; see docs/API.md "Metrics")
//	GET  /debug/slow   — the N slowest explanations over the configured
//	                     threshold, with their full span traces
//
// Explanations run on a bounded worker pool fed by one bounded FIFO queue;
// a full queue answers 429 (backpressure) rather than accepting unbounded
// work, and a leftover "priority" field from older clients is ignored.
// When a reportcache.Cache is configured, identical requests (after query
// canonicalization) are answered from the cache — single-flight, with an
// X-Nexus-Cache: hit|miss|shared header — without occupying a worker.
// Every job runs under a context: per-request deadlines (timeout_ms, capped
// by the server maximum) map to 408, client disconnects map to 499, and
// graceful shutdown (Serve returns once its context is cancelled, e.g. by
// SIGTERM) drains in-flight and queued jobs before exiting. Concurrent requests over
// the same dataset context share one KG extraction through the session's
// nexus.ExtractionCache.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
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
	// CtrCompleted / CtrFailed / CtrTimeout / CtrCancelled count terminal
	// job states: success, non-context error (400), deadline exceeded
	// (408), and client disconnect or shutdown (499).
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

const (
	// maxSubgroups caps the per-request subgroups k: Algorithm 2 ranks
	// groups by size, and past the first twenty a request is asking for the
	// small ones at the full cost of the lattice search.
	maxSubgroups = 20
	// keepJobs bounds the terminal jobs retained for GET /v1/jobs/{id}, so a
	// long-running daemon does not grow with the requests it has served.
	keepJobs = 1024
)

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
	// QueueDepth bounds jobs waiting for a worker; a full queue answers 429
	// (default 4 × Workers).
	QueueDepth int
	// ReportCache, when non-nil, memoizes whole explanation responses for
	// synchronous requests: identical requests (after canonicalization, see
	// nexus.Session.ReportKey) are served the byte-identical response of
	// the first computation, single-flight, with an X-Nexus-Cache header.
	// Nil disables response caching (async requests always bypass it).
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
	jobs     *jobStore
	queue    chan *Job // admitted jobs waiting for a worker
	cache    *reportcache.Cache

	// Serving-metric instruments, resolved once at construction so the
	// per-job path never touches the registry's lock.
	stages      *obs.StageSink // per-stage pipeline_stage_seconds
	queueWait   *obs.Histogram // job_queue_wait_seconds (enqueued → started)
	runTime     *obs.Histogram // job_run_seconds (started → finished)
	workersBusy *obs.Gauge     // workers currently executing a job
	slow        *obs.SlowLog   // nil unless Config.SlowThreshold > 0

	baseCtx    context.Context // parent of async job contexts
	baseCancel context.CancelFunc

	inflight sync.WaitGroup // queued + running jobs
	workers  sync.WaitGroup

	mu       sync.Mutex
	started  bool
	draining bool
}

// New builds a Server over the session. The config's Session must be
// non-nil.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		panic("server: Config.Session is required")
	}
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		metrics:     cfg.Metrics,
		registry:    cfg.Registry,
		jobs:        newJobStore(keepJobs),
		queue:       make(chan *Job, cfg.QueueDepth),
		cache:       cfg.ReportCache,
		stages:      obs.NewStageSink(cfg.Registry),
		queueWait:   cfg.Registry.Histogram("job_queue_wait_seconds", obs.UnitSeconds),
		runTime:     cfg.Registry.Histogram("job_run_seconds", obs.UnitSeconds),
		workersBusy: cfg.Registry.Gauge("workers_busy"),
		slow:        obs.NewSlowLog(cfg.SlowThreshold, cfg.SlowKeep),
		baseCtx:     ctx,
		baseCancel:  cancel,
	}
	// Level gauges read live server state at scrape time.
	s.registry.SetGaugeFunc("job_queue_depth", func() int64 { return int64(len(s.queue)) })
	s.registry.SetGaugeFunc("jobs_retained", func() int64 { return int64(s.jobs.len()) })
	return s
}

// Metrics exposes the server's counter set (rendered as counters on /metrics).
func (s *Server) Metrics() *obs.Counters { return s.metrics }

// Registry exposes the server's metric registry (the one /metrics renders).
func (s *Server) Registry() *obs.Registry { return s.registry }

// SlowLog exposes the slow-request capture (nil when disabled), e.g. for
// nexusd's SIGQUIT dump.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Start launches the worker pool. Serve calls it; call it directly only
// when driving the Handler through a custom HTTP server.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
}

// Handler returns the service's HTTP handler. Every route is wrapped in
// the request-latency middleware, so http_request_seconds{route,outcome}
// covers the whole surface, including the metrics endpoint itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, rpc.Instrument(s.registry, label, h))
	}
	route("POST /v1/explain", "explain", s.handleExplain)
	route("GET /v1/jobs/{id}", "job", s.handleJob)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /metrics", "metrics", rpc.MetricsHandler(s.registry, "nexusd").ServeHTTP)
	route("GET /debug/slow", "slow", rpc.SlowHandler(s.slow).ServeHTTP)
	return mux
}

// Serve accepts connections on ln until ctx is cancelled (the caller
// typically derives ctx from SIGTERM via signal.NotifyContext), then
// gracefully drains: new explanation requests are refused with 503,
// in-flight jobs run to completion (bounded by drainTimeout, after which
// their contexts are cancelled), and the HTTP server shuts down. It
// returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	s.Start()
	return rpc.Serve(ctx, ln, s.Handler(), drainTimeout, s.shutdownWorkers)
}

// shutdownWorkers waits for in-flight jobs (cancelling them if ctx expires
// first), then stops the worker pool. It flips the draining flag first, so
// once inflight drains no new job can reach the queue and closing it is
// safe — admit() registers a job with inflight under the same lock that
// checks the flag.
func (s *Server) shutdownWorkers(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		// Hard stop: cancel async jobs (sync jobs die with their HTTP
		// connections) and give workers a moment to observe it.
		err = fmt.Errorf("server: drain timed out: %w", ctx.Err())
		s.baseCancel()
		<-drained
	}
	s.mu.Lock()
	started := s.started
	s.started = false
	s.mu.Unlock()
	if started {
		close(s.queue)
		s.workers.Wait()
	}
	return err
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit registers one unit of in-flight work unless the server is draining.
// Pairing the draining check and the inflight.Add under one lock guarantees
// shutdownWorkers cannot observe a drained WaitGroup and close the queue
// while an admitted job is still on its way in.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// run executes one job on a worker goroutine. Each job gets its own
// short-lived trace (obs.WithTrace on the job context) whose counters are
// the server's shared set: span durations feed the per-stage pipeline
// histograms through the StageSink, and — when slow capture is on — the
// full span stream is buffered so an over-threshold job lands in the slow
// log with its trace attached.
func (s *Server) run(j *Job) {
	defer s.inflight.Done()
	s.queueWait.RecordSince(j.enqueued)
	s.workersBusy.Inc()
	defer s.workersBusy.Dec()
	j.start()
	start := time.Now()

	ctx := j.ctx
	tr := obs.NewWithCounters("explain "+j.ID, s.metrics)
	tr.AddSink(s.stages)
	var capture *obs.CaptureSink
	if s.slow != nil {
		capture = &obs.CaptureSink{}
		tr.AddSink(capture)
	}
	ctx = obs.WithTrace(ctx, tr)

	rep, err := s.cfg.Session.ExplainCtx(ctx, j.req.SQL)
	var groups []subgroups.Group
	var gstats subgroups.Stats
	if err == nil && j.req.Subgroups > 0 {
		groups, gstats, err = rep.SubgroupsCtx(ctx, j.req.Subgroups, j.req.Tau)
	}
	elapsed := time.Since(start)
	s.runTime.RecordDuration(elapsed)
	tr.Close() // ends the root span, flushing it to the capture sink
	if capture != nil {
		detail := j.req.SQL
		if err != nil {
			detail += " — error: " + err.Error()
		}
		s.slow.Record(obs.SlowEntry{
			ID:     j.ID,
			Detail: detail,
			Start:  start,
			DurNS:  int64(elapsed),
			Events: capture.Events(),
		})
	}
	if err != nil {
		state, code := classifyError(err)
		s.metrics.Add(counterForCode(code), 1)
		j.finish(nil, state, err.Error(), code)
		return
	}
	s.metrics.Add(CtrCompleted, 1)
	j.finish(buildResponse(rep, groups, gstats, j.req.Subgroups > 0, elapsed), JobDone, "", http.StatusOK)
}

// classifyError maps a pipeline error to a terminal job state and HTTP
// status: deadline → 408, cancellation → 499, anything else (parse errors,
// unknown tables/columns) → 400.
func classifyError(err error) (JobState, int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return JobCancelled, http.StatusRequestTimeout
	case errors.Is(err, context.Canceled):
		return JobCancelled, StatusClientClosedRequest
	default:
		return JobFailed, http.StatusBadRequest
	}
}

func counterForCode(code int) string {
	switch code {
	case http.StatusRequestTimeout:
		return CtrTimeout
	case StatusClientClosedRequest:
		return CtrCancelled
	default:
		return CtrFailed
	}
}

func kindForCode(code int) string {
	switch code {
	case http.StatusRequestTimeout:
		return "timeout"
	case StatusClientClosedRequest:
		return "cancelled"
	default:
		return "bad_request"
	}
}

// CacheHeader is the response header reporting how the report cache
// answered a synchronous request: "hit" (stored bytes served), "miss"
// (this request computed and filled the cache) or "shared" (the request
// joined another request's in-flight computation). Absent when the cache
// is disabled, bypassed (async) or not applicable (unparsable query).
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

// handleExplain admits a job into the queue and, for synchronous
// requests, waits for its terminal state — through the report cache when
// one is configured.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
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
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	// Async jobs outlive their request and inherit the server's lifetime
	// context; they always bypass the report cache (their contract is a
	// fresh job id).
	if req.Async {
		jctx, cancel := context.WithTimeout(s.baseCtx, timeout)
		j := &Job{ctx: jctx, cancel: cancel, done: make(chan struct{}), state: JobQueued, req: req, enqueued: time.Now()}
		if herr := s.enqueue(j); herr != nil {
			s.writeError(w, herr.code, herr.kind, herr.msg)
			return
		}
		s.writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id":     j.ID,
			"status_url": "/v1/jobs/" + j.ID,
		})
		return
	}

	// Synchronous jobs inherit the request context so a disconnected
	// client cancels the work. The same deadline-carrying context is the
	// one the request waits under in the report cache, which is how the
	// cache tells a leader that failed on its own deadline or disconnect
	// from a leader whose failure its waiters should share (the job runs
	// under a child, so finishing it does not end rctx).
	rctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	runSync := func() (JobStatus, *httpError) {
		jctx, cancel := context.WithCancel(rctx)
		j := &Job{ctx: jctx, cancel: cancel, done: make(chan struct{}), state: JobQueued, req: req, enqueued: time.Now()}
		if herr := s.enqueue(j); herr != nil {
			return JobStatus{}, herr
		}
		<-j.done
		return j.snapshot(), nil
	}

	if s.cache != nil {
		if key, err := s.cfg.Session.ReportKey(req.SQL, req.Subgroups, req.Tau); err == nil {
			s.explainCached(rctx, w, key, runSync)
			return
		}
		// Unparsable queries fall through: the pipeline reports them as
		// proper 400s, and failures are never cacheable anyway.
	}
	st, herr := runSync()
	if herr != nil {
		s.writeError(w, herr.code, herr.kind, herr.msg)
		return
	}
	if st.State == JobDone {
		s.writeJSON(w, http.StatusOK, st.Result)
		return
	}
	s.writeError(w, st.Code, kindForCode(st.Code), st.Error)
}

// explainCached answers a synchronous request through the report cache:
// single-flight per key, serving stored bytes on a hit. The stored bytes
// are exactly what writeJSON would have produced for the cold computation
// (MarshalIndent plus the encoder's trailing newline), so a hit is
// byte-identical to the miss that filled it. Failures — admission
// refusals, pipeline errors, a waiter's own context ending — are never
// stored (the cache evicts on error) and keep their HTTP classification;
// a 408/499 earned by the leading request's own ctx is not shared with the
// requests that joined it (they recompute, see sfcache).
func (s *Server) explainCached(ctx context.Context, w http.ResponseWriter, key string, runSync func() (JobStatus, *httpError)) {
	data, outcome, err := s.cache.Get(ctx, key, func() ([]byte, error) {
		st, herr := runSync()
		if herr != nil {
			return nil, herr
		}
		if st.State != JobDone {
			return nil, &httpError{code: st.Code, kind: kindForCode(st.Code), msg: st.Error}
		}
		buf, merr := json.MarshalIndent(st.Result, "", "  ")
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
		_, code := classifyError(err)
		s.writeError(w, code, kindForCode(code), err.Error())
		return
	}
	s.writeRaw(w, http.StatusOK, data)
}

// enqueue applies admission control and hands the job to the queue,
// registering it with the in-flight group and the job store. On refusal it
// returns the httpError to write; the job is not registered anywhere.
func (s *Server) enqueue(j *Job) *httpError {
	if !s.admit() {
		j.cancel()
		return &httpError{code: http.StatusServiceUnavailable, kind: "draining", msg: "server is shutting down"}
	}
	// Register before sending: a worker may take the job the instant it is
	// queued, so the id must already be assigned. A refused job is removed
	// again below.
	j.ID = s.jobs.add(j)
	select {
	case s.queue <- j:
		s.metrics.Add(CtrRequests, 1)
		return nil
	default:
		s.jobs.remove(j.ID)
		s.inflight.Done()
		j.cancel()
		s.metrics.Add(CtrRejected, 1)
		return &httpError{code: http.StatusTooManyRequests, kind: "queue_full", msg: "job queue is full, retry later"}
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "not_found", "unknown job id")
		return
	}
	s.writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
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
