package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/obs"
	"nexus/internal/stats"
)

// ServerConfig is the part of a protocol server's Config this package
// owns: fault injection for resilience testing and serving observability.
// The protocol packages embed it, so the fields read as their own.
type ServerConfig struct {
	// FailRate is the probability in [0,1) that a protocol request is
	// rejected with HTTP 500 before reaching its handler.
	FailRate float64
	// Latency is an artificial delay added to every protocol request
	// (cancelled early if the client gives up).
	Latency time.Duration
	// Seed seeds the fault-injection RNG (default 1): the same request
	// sequence sees the same fault sequence.
	Seed uint64
	// Registry collects serving metrics for GET /metrics: request latency
	// by route and outcome, an in-flight gauge, and the fault counter. Nil
	// builds a private registry, so /metrics is always available.
	Registry *obs.Registry
	// SlowThreshold enables slow-request capture (GET /debug/slow, SIGQUIT
	// dump in the daemons): requests at or over the threshold compete for
	// the SlowKeep (default 32) slowest slots. Zero disables capture.
	SlowThreshold time.Duration
	SlowKeep      int
}

// ctrInjected counts injected faults on the registry's counter set
// (exposed as <ns>_faults_injected_total on /metrics).
const ctrInjected = "faults_injected"

// maxBodyBytes caps a request body. Datasets carry full encoded columns,
// so the cap is generous; an over-limit body is answered 413.
const maxBodyBytes = 64 << 20

// Server is the serving substrate of one protocol: routes registered with
// Handle and HandleGet, plus GET /metrics, /debug/slow and /healthz. Every
// route — /metrics included — records http_request_seconds{route,outcome},
// the in-flight gauge and the slow log; only Handle routes are counted per
// path and fault-injected, so stats and liveness are always honest.
type Server struct {
	cfg      ServerConfig
	mux      *http.ServeMux
	slow     *obs.SlowLog
	inFlight *obs.Gauge
	maxBody  int64

	mu  sync.Mutex // guards rng
	rng *stats.RNG

	// reqs maps each Handle path to its request count; written only while
	// routes are registered, before the server handles traffic.
	reqs map[string]*atomic.Int64
}

// NewServer returns a server whose metrics are exposed under the ns_
// prefix (the daemon's name).
func NewServer(ns string, cfg ServerConfig) *Server {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry(nil)
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		slow:     obs.NewSlowLog(cfg.SlowThreshold, cfg.SlowKeep),
		inFlight: cfg.Registry.Gauge("requests_in_flight"),
		maxBody:  maxBodyBytes,
		rng:      stats.NewRNG(cfg.Seed),
		reqs:     make(map[string]*atomic.Int64),
	}
	s.route("GET /metrics", "metrics", MetricsHandler(cfg.Registry, ns).ServeHTTP)
	s.route("GET /debug/slow", "slow", SlowHandler(s.slow).ServeHTTP)
	s.route("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return s
}

// Registry exposes the server's metric registry (rendered at /metrics).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// SlowLog exposes the slow-request capture (nil when disabled), e.g. for
// the daemons' SIGQUIT dump.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Handler returns the HTTP handler serving every registered route.
func (s *Server) Handler() http.Handler { return s.mux }

// Requests returns the request count recorded for one Handle path.
func (s *Server) Requests(path string) int64 {
	if n := s.reqs[path]; n != nil {
		return n.Load()
	}
	return 0
}

// RequestCounts returns the request count of every Handle path hit so far.
func (s *Server) RequestCounts() map[string]int64 {
	out := make(map[string]int64)
	for path, n := range s.reqs {
		if v := n.Load(); v > 0 {
			out[path] = v
		}
	}
	return out
}

// Injected returns the number of faults injected so far.
func (s *Server) Injected() int64 { return s.cfg.Registry.Counters().Get(ctrInjected) }

// route registers h under the request-latency middleware, the in-flight
// gauge and the slow log. Handlers are thin batch loops with no span tree,
// so slow entries carry the method, path and wall clock but no trace
// events.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.Handle(pattern, Instrument(s.cfg.Registry, label, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Inc()
		defer s.inFlight.Dec()
		start := time.Now()
		h(w, r)
		s.slow.Record(obs.SlowEntry{ID: r.Method + " " + r.URL.Path, Start: start, DurNS: int64(time.Since(start))}, nil)
	})))
}

// HandleGet registers a read-only JSON route (a protocol's stats endpoint).
func HandleGet[Resp any](s *Server, path, label string, fn func() Resp) {
	s.route("GET "+path, label, func(w http.ResponseWriter, r *http.Request) { writeJSON(w, fn()) })
}

// Handle registers a protocol endpoint: POST path decodes the JSON body
// into a Req, calls fn and replies with its Resp as JSON. An error from fn
// is answered with its text under the status of the StatusError it wraps,
// 400 otherwise; a malformed body is answered 400 and an over-limit one
// 413, without reaching fn. The endpoint is counted per path and subject
// to the configured fault injection.
func Handle[Req, Resp any](s *Server, path, label string, fn func(ctx context.Context, req *Req) (Resp, error)) {
	s.reqs[path] = new(atomic.Int64)
	s.route("POST "+path, label, s.fault(path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !s.decode(w, r, &req) {
			return
		}
		resp, err := fn(r.Context(), &req)
		if r.Context().Err() != nil {
			return // client gone; nothing to say
		}
		var se *StatusError
		switch {
		case err == nil:
			writeJSON(w, resp)
		case errors.As(err, &se):
			http.Error(w, se.Body, se.Code)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
}

// fault wraps a handler with request counting, artificial latency, and
// probabilistic 500s.
func (s *Server) fault(path string, h http.HandlerFunc) http.HandlerFunc {
	count := s.reqs[path]
	return func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		if s.cfg.Latency > 0 {
			t := time.NewTimer(s.cfg.Latency)
			select {
			case <-r.Context().Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if s.cfg.FailRate > 0 {
			s.mu.Lock()
			fail := s.rng.Float64() < s.cfg.FailRate
			s.mu.Unlock()
			if fail {
				s.cfg.Registry.Counters().Add(ctrInjected, 1)
				http.Error(w, "injected fault", http.StatusInternalServerError)
				return
			}
		}
		h(w, r)
	}
}

// decode reads a JSON request body into req, replying 413 when it
// exceeds the body limit and 400 when it is malformed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(req)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "invalid request body: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// writeJSON replies 200 with v as JSON. v is encoded before the status is
// written, so a value JSON cannot carry (a NaN or ±Inf float) is answered
// 500 with a body naming the encoding error, not 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) // a failed write means the client is gone
}

// Serve runs the server on ln until ctx is cancelled, then drains; see the
// package-level Serve.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	return Serve(ctx, ln, s.mux, drainTimeout, nil)
}

// defaultDrainTimeout bounds a graceful drain when the caller passes none.
const defaultDrainTimeout = 30 * time.Second

// Serve runs h on ln until ctx is cancelled (the daemons derive ctx from
// SIGTERM), then shuts down gracefully: in-flight requests get
// drainTimeout (<= 0 selects 30s) to finish, after which
// their connections are closed. drain, when non-nil, runs first under the
// same deadline — the hook a server with work outliving its requests uses
// to finish that work — and also runs if the listener fails. Serve returns
// nil after a clean drain.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drainTimeout time.Duration, drain func(context.Context) error) error {
	if drain == nil {
		drain = func(context.Context) error { return nil }
	}
	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		drain(context.Background())
		return err
	case <-ctx.Done():
	}
	if drainTimeout <= 0 {
		drainTimeout = defaultDrainTimeout
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	derr := drain(dctx)
	herr := hs.Shutdown(dctx)
	if herr != nil {
		hs.Close()
	}
	if derr != nil {
		return derr
	}
	return herr
}

// Outcome classes of the request-latency histogram's "outcome" label: one
// per status family rather than one per status code, so cardinality stays
// fixed no matter what a handler returns.
const (
	OutcomeOK          = "ok"           // 1xx-3xx
	OutcomeClientError = "client_error" // 4xx
	OutcomeServerError = "server_error" // 5xx
)

func outcomeClass(status int) string {
	switch {
	case status >= 500:
		return OutcomeServerError
	case status >= 400:
		return OutcomeClientError
	default:
		return OutcomeOK
	}
}

// statusWriter captures the status code a handler wrote so the middleware
// can label the latency sample by outcome. A handler that never calls
// WriteHeader implicitly wrote 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Instrument wraps h so every request records its end-to-end latency into
// reg's http_request_seconds histogram labelled {route=route, outcome=...}.
// The three outcome series are created up front, so the per-request path
// never takes the registry lock — one small map lookup plus one
// allocation-free Record. A nil registry returns h unchanged.
func Instrument(reg *obs.Registry, route string, h http.Handler) http.Handler {
	if reg == nil {
		return h
	}
	outcomes := map[string]*obs.Histogram{}
	for _, o := range []string{OutcomeOK, OutcomeClientError, OutcomeServerError} {
		outcomes[o] = reg.Histogram("http_request_seconds", obs.UnitSeconds, "route", route, "outcome", o)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		outcomes[outcomeClass(status)].RecordSince(start)
	})
}

// MetricsHandler serves reg in Prometheus text format with every metric
// name prefixed by ns — GET /metrics for every daemon.
func MetricsHandler(reg *obs.Registry, ns string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w, ns)
	})
}

// slowReport is the JSON shape of GET /debug/slow.
type slowReport struct {
	Enabled     bool    `json:"enabled"`
	ThresholdMS float64 `json:"threshold_ms,omitempty"`
	// Seen counts every over-threshold request observed, retained or not.
	Seen    int64           `json:"seen"`
	Entries []obs.SlowEntry `json:"entries"`
}

// SlowHandler reports the retained slow-request captures, slowest first.
// A nil log (capture disabled) reports enabled=false and no entries.
func SlowHandler(l *obs.SlowLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := slowReport{
			Enabled:     l != nil,
			ThresholdMS: float64(l.Threshold()) / float64(time.Millisecond),
			Seen:        l.Seen(),
			Entries:     l.Snapshot(),
		}
		if rep.Entries == nil {
			rep.Entries = []obs.SlowEntry{}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
}
