package rpc

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/obs"
)

type echo struct {
	N int `json:"n"`
}

// TestBackoffSchedule pins the seeded jittered backoff: the same seed
// yields the same schedule, every delay lies in [d/2, d] for the doubled,
// RetryMax-capped d, and a different seed yields a different schedule.
func TestBackoffSchedule(t *testing.T) {
	const base, max = 10 * time.Millisecond, 160 * time.Millisecond
	schedule := func(seed uint64) []time.Duration {
		c := NewClient(ClientConfig{RetryBase: base, RetryMax: max, Seed: seed})
		out := make([]time.Duration, 70) // past the shift overflow of base << attempt
		for i := range out {
			out[i] = c.delay(i + 1)
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i, got := range a {
		if got != b[i] {
			t.Fatalf("attempt %d: same seed, delays %v and %v", i+1, got, b[i])
		}
		d := max
		if i < 4 {
			d = base << i
		}
		if got < d/2 || got > d {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", i+1, got, d/2, d)
		}
	}
	if fmt.Sprint(schedule(8)) == fmt.Sprint(a) {
		t.Error("different seeds produced the same schedule")
	}
}

// TestRetryClassification is the shared error-class table: which failures
// Retry spends further attempts on, and how the final error reads.
func TestRetryClassification(t *testing.T) {
	const attempts = 3
	cases := []struct {
		name     string
		handler  http.HandlerFunc
		dead     bool // server closed before the call: transport error
		wantHits int64
		wantErr  string // substring; "" = success
		wantCode int
	}{
		{name: "ok", wantHits: 1,
			handler: func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"n":2}`) }},
		{name: "400 is permanent", wantHits: 1, wantErr: "bad thing", wantCode: 400,
			handler: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "bad thing", 400) }},
		{name: "404 is permanent and typed", wantHits: 1, wantErr: "404 Not Found", wantCode: 404,
			handler: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "unknown dataset x", 404) }},
		{name: "500 is retried", wantHits: attempts, wantErr: "giving up after 3 attempts", wantCode: 500,
			handler: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", 500) }},
		{name: "malformed reply is permanent", wantHits: 1, wantErr: "decode response",
			handler: func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"n":`) }},
		{name: "per-attempt timeout is retried", wantHits: attempts, wantErr: "giving up after 3 attempts",
			handler: func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body) // the server notices a gone client only once the body is read
				<-r.Context().Done()
			}},
		{name: "transport error is retried", dead: true, wantErr: "giving up after 3 attempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				tc.handler(w, r)
			}))
			defer hs.Close()
			if tc.dead {
				hs.Close()
			}
			ctr := obs.NewCounters()
			c := NewClient(ClientConfig{
				Attempts: attempts, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
				Timeout: 50 * time.Millisecond, Counters: ctr, Requests: "reqs", Retries: "retries",
			})
			var out echo
			tries := 0
			err := c.Retry(context.Background(), func(int) error {
				tries++
				return c.Post(context.Background(), hs.URL, echo{N: 1}, &out)
			})
			if tc.wantErr == "" {
				if err != nil || out.N != 2 {
					t.Fatalf("err = %v, out = %+v", err, out)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
			}
			if got := StatusCode(err); got != tc.wantCode {
				t.Errorf("StatusCode = %d, want %d", got, tc.wantCode)
			}
			if !tc.dead && hits.Load() != tc.wantHits {
				t.Errorf("server saw %d requests, want %d", hits.Load(), tc.wantHits)
			}
			if got := ctr.Get("reqs"); got != int64(tries) {
				t.Errorf("requests counter = %d, want one per try (%d)", got, tries)
			}
			if got := ctr.Get("retries"); got != int64(tries-1) {
				t.Errorf("retries counter = %d, want %d", got, tries-1)
			}
		})
	}
}

// TestRetryCancellation pins that a cancelled parent context is never
// retried and surfaces errors.Is-matchable, whether it ends during an
// attempt or during the backoff sleep; and that Permanent stops the loop.
func TestRetryCancellation(t *testing.T) {
	for _, during := range []string{"attempt", "backoff"} {
		t.Run(during, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := NewClient(ClientConfig{Attempts: 100, RetryBase: time.Hour, RetryMax: time.Hour})
			if during == "backoff" {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			tries := 0
			err := c.Retry(ctx, func(int) error {
				tries++
				if during == "attempt" {
					cancel()
				}
				return errors.New("transient")
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if tries != 1 {
				t.Fatalf("tried %d times after cancellation, want 1", tries)
			}
		})
	}
	c := NewClient(ClientConfig{Attempts: 5, RetryBase: time.Millisecond})
	cause := errors.New("reply breaks the merge invariant")
	tries := 0
	err := c.Retry(context.Background(), func(int) error { tries++; return Permanent(cause) })
	if !errors.Is(err, cause) || tries != 1 {
		t.Fatalf("Permanent: err = %v after %d tries, want the cause after 1", err, tries)
	}
}

// TestForEachChunk pins the fan-out: every index is covered exactly once
// with consecutive ordinals, concurrency never exceeds the limit, and the
// first error cancels the remaining chunks without leaking a goroutine.
func TestForEachChunk(t *testing.T) {
	for _, tc := range []struct{ n, size, limit, wantChunks int }{
		{0, 4, 2, 0}, {3, 4, 2, 1}, {4, 4, 2, 1}, {10, 3, 2, 4}, {64, 1, 5, 64},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		seqs := map[int]bool{}
		cur, peak := 0, 0
		err := ForEachChunk(context.Background(), tc.n, tc.size, tc.limit, func(_ context.Context, lo, hi, seq int) error {
			mu.Lock()
			if cur++; cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			defer mu.Unlock()
			cur--
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			seqs[seq] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d size=%d: index %d visited %d times", tc.n, tc.size, i, c)
			}
		}
		for s := 0; s < tc.wantChunks; s++ {
			if !seqs[s] {
				t.Errorf("n=%d size=%d: ordinal %d never ran", tc.n, tc.size, s)
			}
		}
		if len(seqs) != tc.wantChunks || peak > tc.limit {
			t.Errorf("n=%d size=%d: %d chunks (want %d), peak concurrency %d (limit %d)",
				tc.n, tc.size, len(seqs), tc.wantChunks, peak, tc.limit)
		}
	}

	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var started atomic.Int64
	err := ForEachChunk(context.Background(), 1000, 1, 4, func(ctx context.Context, lo, _, _ int) error {
		started.Add(1)
		if lo == 2 {
			return boom
		}
		<-ctx.Done() // every other chunk runs until the failure cancels it
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first failure", err)
	}
	if started.Load() > 50 {
		t.Errorf("%d of 1000 chunks started after the failure cancelled the fan-out", started.Load())
	}
	waitGoroutines(t, before)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = ForEachChunk(ctx, 10, 1, 2, func(ctx context.Context, _, _, _ int) error { return ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// waitGoroutines polls until the goroutine count is back at the baseline.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("leaked goroutines: %d before, %d after\n%s", before, g, buf[:runtime.Stack(buf, true)])
	}
}

// TestLRU pins the bounded size, the recency order, in-place replacement
// and that a zero capacity stores nothing.
func TestLRU(t *testing.T) {
	c := NewLRU[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Get(1) // refresh 1 → 2 is now oldest
	c.Put(3, "c")
	if _, ok := c.Get(2); ok {
		t.Fatal("least recently used entry survived")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatal("recently used entry evicted")
	}
	c.Put(3, "c2") // replace: no growth, no eviction
	if v, _ := c.Get(3); v != "c2" || c.Len() != 2 {
		t.Fatalf("after replace: value %q, len %d", v, c.Len())
	}
	for _, capacity := range []int{0, -1} {
		z := NewLRU[int, string](capacity)
		z.Put(1, "a")
		if _, ok := z.Get(1); ok || z.Len() != 0 {
			t.Fatalf("capacity %d stored an entry", capacity)
		}
	}
}

// echoServer is a one-endpoint protocol server: /echo doubles n, fails
// with a typed 404 on n == 404 and a plain error on negative n.
func echoServer(cfg ServerConfig) *Server {
	s := NewServer("test", cfg)
	Handle(s, "/echo", "echo", func(_ context.Context, req *echo) (echo, error) {
		switch {
		case req.N == 404:
			return echo{}, &StatusError{Code: http.StatusNotFound, Body: "unknown thing 404"}
		case req.N < 0:
			return echo{}, errors.New("negative n")
		}
		return echo{N: 2 * req.N}, nil
	})
	HandleGet(s, "/stats", "stats", s.RequestCounts)
	return s
}

func do(t *testing.T, hs *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, strings.TrimSpace(string(b))
}

// TestHandleReplies is the server half's reply table: status and body per
// request shape, including the 413 for a body one byte over the limit.
func TestHandleReplies(t *testing.T) {
	s := echoServer(ServerConfig{})
	s.maxBody = 32
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	// pad returns an n-byte body that is one JSON value, so the decoder has
	// to read all of it.
	pad := func(n int) string { return `{"n":1,"p":"` + strings.Repeat("x", n-len(`{"n":1,"p":""}`)) + `"}` }
	for _, tc := range []struct {
		name, method, path, body string
		wantCode                 int
		wantBody                 string
	}{
		{"ok", "POST", "/echo", `{"n":21}`, 200, `{"n":42}`},
		{"typed status", "POST", "/echo", `{"n":404}`, 404, "unknown thing 404"},
		{"plain error is 400", "POST", "/echo", `{"n":-1}`, 400, "negative n"},
		{"malformed body", "POST", "/echo", `{bad json`, 400, "invalid request body"},
		{"body at the limit", "POST", "/echo", pad(32), 200, `{"n":2}`},
		{"body one byte over the limit", "POST", "/echo", pad(33), 413, "exceeds the 32-byte limit"},
		{"wrong method", "GET", "/echo", "", 405, ""},
		{"healthz", "GET", "/healthz", "", 200, "ok"},
		{"stats counts protocol requests only", "GET", "/stats", "", 200, `{"/echo":6}`},
	} {
		code, body := do(t, hs, tc.method, tc.path, tc.body)
		if code != tc.wantCode || !strings.Contains(body, tc.wantBody) {
			t.Errorf("%s: %d %q, want %d containing %q", tc.name, code, body, tc.wantCode, tc.wantBody)
		}
	}
	if got := s.Requests("/echo"); got != 6 {
		t.Errorf("Requests(/echo) = %d, want 6", got)
	}
	_, metrics := do(t, hs, "GET", "/metrics", "")
	for _, want := range []string{"test_requests_in_flight", `test_http_request_seconds_count{route="echo",outcome="client_error"} 4`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
}

// TestUnencodableReplyNamesTheError pins that a reply JSON cannot carry —
// a NaN or ±Inf float — is answered with an error status whose body names
// the encoding error, on both route kinds, and that the client reports
// that cause rather than an empty 200 body it cannot decode.
func TestUnencodableReplyNamesTheError(t *testing.T) {
	type reply struct {
		X float64 `json:"x"`
	}
	s := NewServer("test", ServerConfig{})
	Handle(s, "/nan", "nan", func(context.Context, *echo) (reply, error) { return reply{X: math.NaN()}, nil })
	HandleGet(s, "/inf", "inf", func() reply { return reply{X: math.Inf(-1)} })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, tc := range []struct{ method, path, value string }{{"POST", "/nan", "NaN"}, {"GET", "/inf", "-Inf"}} {
		code, body := do(t, hs, tc.method, tc.path, `{}`)
		if code != http.StatusInternalServerError || !strings.Contains(body, "unsupported value: "+tc.value) {
			t.Errorf("%s %s: %d %q, want 500 naming the unsupported value %s", tc.method, tc.path, code, body, tc.value)
		}
	}
	err := NewClient(ClientConfig{}).Post(context.Background(), hs.URL+"/nan", echo{}, new(reply))
	if StatusCode(err) != http.StatusInternalServerError || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("Post = %v, want a 500 naming the unsupported value", err)
	}
}

// TestFaultInjection pins that two servers with the same seed fail the
// same request positions — the property the acceptance tests' reproducible
// fail-rate runs depend on —, that faults are counted, and that liveness,
// stats and metrics bypass both faults and latency.
func TestFaultInjection(t *testing.T) {
	pattern := func(seed uint64) (string, *Server) {
		s := echoServer(ServerConfig{FailRate: 0.4, Seed: seed})
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			if code, _ := do(t, hs, "POST", "/echo", `{"n":1}`); code == 500 {
				sb.WriteByte('x')
			} else {
				sb.WriteByte('.')
			}
		}
		if _, m := do(t, hs, "GET", "/metrics", ""); !strings.Contains(m, fmt.Sprintf("test_faults_injected_total %d\n", s.Injected())) {
			t.Errorf("/metrics does not report %d injected faults:\n%s", s.Injected(), m)
		}
		return sb.String(), s
	}
	a, srv := pattern(9)
	if b, _ := pattern(9); a != b {
		t.Fatalf("same seed, different fault patterns:\n%s\n%s", a, b)
	}
	if n := strings.Count(a, "x"); n == 0 || n == 40 || int64(n) != srv.Injected() {
		t.Fatalf("fail-rate 0.4 produced pattern %s with Injected() = %d", a, srv.Injected())
	}
	if c, _ := pattern(10); c == a {
		t.Fatal("different seeds produced identical fault patterns")
	}

	hs := httptest.NewServer(echoServer(ServerConfig{FailRate: 0.99, Latency: time.Hour}).Handler())
	defer hs.Close()
	for _, path := range []string{"/healthz", "/stats", "/metrics", "/debug/slow"} {
		if code, body := do(t, hs, "GET", path, ""); code != 200 {
			t.Errorf("%s under faults = %d %s", path, code, body)
		}
	}
}

// TestServeDrain pins the drain rule all three daemons share. With an
// in-flight request and drainTimeout 0, Serve must fall back to the default
// and let the request finish (passing 0 to context.WithTimeout, as the
// servers did before, fails the shutdown at once and never closes the
// connection). With a drain too short for the request, Serve must report
// the timeout and close the connection rather than leave it open.
func TestServeDrain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		drain   time.Duration
		hang    bool // handler runs until its connection is closed
		wantErr bool
	}{
		{name: "zero drain timeout waits for in-flight", drain: 0},
		{name: "expired drain closes connections", drain: 20 * time.Millisecond, hang: true, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan struct{}), make(chan struct{})
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				if tc.hang {
					<-r.Context().Done()
					return
				}
				<-release
				io.WriteString(w, "done")
			})
			var drained atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			serveErr := make(chan error, 1)
			go func() {
				serveErr <- Serve(ctx, ln, h, tc.drain, func(context.Context) error { drained.Store(true); return nil })
			}()
			type reply struct {
				body string
				err  error
			}
			replies := make(chan reply, 1)
			go func() {
				resp, err := http.Get("http://" + ln.Addr().String())
				if err != nil {
					replies <- reply{err: err}
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				replies <- reply{string(b), err}
			}()
			<-entered
			cancel()
			if !tc.hang {
				select {
				case err := <-serveErr:
					t.Fatalf("Serve returned (%v) with a request still in flight", err)
				case <-time.After(50 * time.Millisecond):
				}
				close(release)
			}
			select {
			case err := <-serveErr:
				if (err != nil) != tc.wantErr {
					t.Fatalf("Serve = %v, want error: %v", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return")
			}
			r := <-replies
			if tc.hang && r.err == nil {
				t.Errorf("hung request got reply %q; its connection should have been closed", r.body)
			}
			if !tc.hang && (r.err != nil || r.body != "done") {
				t.Errorf("in-flight request = %q, %v; want it to finish", r.body, r.err)
			}
			if !drained.Load() {
				t.Error("drain hook never ran")
			}
		})
	}
}

// TestDaemonFlags pins the shared flag set and its validation.
func TestDaemonFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		faults  bool
		want    ServerConfig
		wantErr string
	}{
		{args: nil, faults: true, want: ServerConfig{Seed: 1, SlowKeep: 32}},
		{args: []string{"-fail-rate", "0.2", "-latency", "5ms", "-fault-seed", "9", "-slow-threshold", "1s", "-slow-keep", "4"}, faults: true,
			want: ServerConfig{FailRate: 0.2, Latency: 5 * time.Millisecond, Seed: 9, SlowThreshold: time.Second, SlowKeep: 4}},
		{args: []string{"-fail-rate", "1"}, faults: true, wantErr: "-fail-rate must be in [0,1)"},
		{args: []string{"-fail-rate", "-0.1"}, faults: true, wantErr: "-fail-rate must be in [0,1)"},
		{args: []string{"-slow-threshold", "2s"}, want: ServerConfig{SlowThreshold: 2 * time.Second, SlowKeep: 32}},
		{args: []string{"-fail-rate", "0.2"}, wantErr: "flag provided but not defined"},
	} {
		fs := flag.NewFlagSet("testd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		d := NewDaemon(fs, ":1234", 10*time.Second, tc.faults)
		err := fs.Parse(tc.args)
		var got ServerConfig
		if err == nil {
			got, err = d.ServerConfig()
		}
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%v: err = %v, want %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%v: config %+v, err %v; want %+v", tc.args, got, err, tc.want)
		}
		if *d.addr != ":1234" || *d.drainTimeout != 10*time.Second || *d.debugAddr != "" {
			t.Errorf("defaults: addr %q drain %v debug %q", *d.addr, *d.drainTimeout, *d.debugAddr)
		}
	}
}
