package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/workload"
)

// The fixture world and dataset are immutable once built, so all tests share
// them; each test builds its own Session + cache + Server so counters and
// queues stay independent.
var (
	fixtureOnce sync.Once
	fixtureWld  *kg.World
	fixtureDS   *workload.Dataset
)

const testSQL = "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category"

func fixture(t *testing.T) (*kg.World, *workload.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureWld = kg.NewWorld(kg.WorldConfig{Seed: 11})
		ds, err := workload.ByName(fixtureWld, "forbes", 400, 11)
		if err != nil {
			panic(err)
		}
		fixtureDS = ds
	})
	return fixtureWld, fixtureDS
}

// newTestServer builds a Server whose session shares one counter set with
// the extraction cache, mirroring cmd/nexusd.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Counters) {
	t.Helper()
	world, ds := fixture(t)
	metrics := obs.NewCounters()
	sess := nexus.NewSession(world.Graph, &nexus.Options{
		Hops:         1,
		ExtractCache: nexus.NewExtractionCache(metrics),
	})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	cfg.Session = sess
	cfg.Metrics = metrics
	return New(cfg), metrics
}

// postExplain runs one POST /v1/explain. It is goroutine-safe: transport
// errors are reported with Errorf and surface as a zero status code.
func postExplain(t *testing.T, url string, req ExplainRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/explain: %v", err)
		return 0, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestConcurrentExplainSharesExtraction is the headline cache test: N
// concurrent requests over the same dataset context must run KG extraction
// once and count N-1 cache hits.
func TestConcurrentExplainSharesExtraction(t *testing.T) {
	srv, metrics := newTestServer(t, Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postExplain(t, ts.URL, ExplainRequest{SQL: testSQL})
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	hits := metrics.Get(obs.ExtractCacheHits)
	misses := metrics.Get(obs.ExtractCacheMisses)
	if hits == 0 {
		t.Fatalf("extract_cache_hits = 0 (misses = %d); concurrent requests did not share the extraction", misses)
	}
	if misses != 1 {
		t.Fatalf("extract_cache_misses = %d, want exactly 1", misses)
	}

	// The counters must also be visible on /metrics under the nexusd_ prefix.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("nexusd_%s_total %d\n", obs.ExtractCacheHits, hits),
		fmt.Sprintf("nexusd_%s_total %d\n", CtrCompleted, n),
	} {
		if !strings.Contains(string(exposition), want) {
			t.Fatalf("/metrics lacks %q in:\n%s", want, exposition)
		}
	}
}

// TestDeadlineReturns408: a 1ms deadline must cancel the pipeline promptly
// and map to 408 with the timeout error kind.
func TestDeadlineReturns408(t *testing.T) {
	srv, metrics := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	code, body := postExplain(t, ts.URL, ExplainRequest{SQL: testSQL, TimeoutMS: 1})
	elapsed := time.Since(start)
	if code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408; body: %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, body)
	}
	if eb.Kind != "timeout" {
		t.Fatalf("error kind = %q, want timeout (%s)", eb.Kind, body)
	}
	// "Promptly": far below the seconds a full explanation takes.
	if elapsed > 3*time.Second {
		t.Fatalf("1ms-deadline request took %v", elapsed)
	}
	if metrics.Get(CtrTimeout) != 1 {
		t.Fatalf("%s = %d, want 1", CtrTimeout, metrics.Get(CtrTimeout))
	}
}

// TestTimeoutClampedToMax: a timeout_ms far past -max-timeout is clamped to
// it, not overflowed into an expired deadline.
func TestTimeoutClampedToMax(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"sql": %q, "timeout_ms": 10000000000000}`, testSQL)
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", resp.StatusCode, out)
	}
}

// TestQueueBackpressure: with one worker and a one-slot queue, a burst of
// simultaneous requests must see 429s rather than unbounded queueing.
func TestQueueBackpressure(t *testing.T) {
	srv, metrics := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postExplain(t, ts.URL, ExplainRequest{SQL: testSQL})
		}(i)
	}
	wg.Wait()
	var ok, rejected int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if rejected == 0 {
		t.Fatal("no request was rejected with 429")
	}
	if metrics.Get(CtrRejected) != int64(rejected) {
		t.Fatalf("%s = %d, want %d", CtrRejected, metrics.Get(CtrRejected), rejected)
	}
}

// TestSIGTERMDrainsInflight is the graceful-shutdown acceptance test: a
// SIGTERM delivered while one explanation runs and two more wait in the
// queue must let all three finish (each client still gets its 200) before
// Serve returns. The single worker is held in a gated KG lookup until the
// drain has begun, so the two queued requests are still queued when the
// signal lands.
func TestSIGTERMDrainsInflight(t *testing.T) {
	world, ds := fixture(t)
	gate := &gatedSource{Source: world.Graph, entered: make(chan struct{}), release: make(chan struct{})}
	metrics := obs.NewCounters()
	sess := nexus.NewSessionFromSource(gate, &nexus.Options{Hops: 1, ExtractCache: nexus.NewExtractionCache(metrics)})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	srv := New(Config{Session: sess, Metrics: metrics, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln, 60*time.Second) }()
	base := "http://" + ln.Addr().String()

	// Wait for the listener to answer.
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Launch three explanations: the first parks the only worker inside the
	// gate, the other two wait in the queue behind it.
	type result struct {
		code int
		body []byte
		err  error
	}
	const n = 3
	done := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			body, _ := json.Marshal(ExplainRequest{SQL: testSQL})
			resp, err := http.Post(base+"/v1/explain", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- result{err: err}
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			done <- result{code: resp.StatusCode, body: out}
		}()
	}
	<-gate.entered
	for i := 0; metrics.Get(CtrRequests) < n; i++ {
		if i > 1000 {
			t.Fatalf("only %d of %d requests enqueued", metrics.Get(CtrRequests), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if q := gauge(t, base, "job_queue_depth"); q != n-1 {
		t.Fatalf("queue depth at SIGTERM = %d, want %d", q, n-1)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; !srv.draining.Load(); i++ {
		if i > 1000 {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate.release)

	for i := 0; i < n; i++ {
		res := <-done
		if res.err != nil {
			t.Fatalf("in-flight request failed: %v", res.err)
		}
		if res.code != http.StatusOK {
			t.Fatalf("in-flight request during drain: status %d, body %s", res.code, res.body)
		}
		var er ExplainResponse
		if err := json.Unmarshal(res.body, &er); err != nil {
			t.Fatalf("drained response not a result: %v (%s)", err, res.body)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	if got := metrics.Get(CtrCompleted); got != n {
		t.Fatalf("%s = %d, want %d (every job must complete, not be cancelled)", CtrCompleted, got, n)
	}

	// New work is refused once draining.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestLegacyPriorityIgnored: a request that still carries the retired
// "priority" or "async" field is served like any other — same status, same
// body — not refused as malformed, and no job route answers for it.
func TestLegacyPriorityIgnored(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	serve := func(body string) (int, map[string]any) {
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if err := json.Unmarshal(out, &m); err != nil {
			t.Fatalf("response not JSON: %v (%s)", err, out)
		}
		delete(m, "elapsed_ms") // the one field that differs between two runs
		return resp.StatusCode, m
	}
	code, plain := serve(`{"sql": "` + testSQL + `"}`)
	if code != http.StatusOK {
		t.Fatalf("plain: status %d (%v)", code, plain)
	}
	for _, legacy := range []string{`"priority": "urgent"`, `"async": true`} {
		code, got := serve(`{"sql": "` + testSQL + `", ` + legacy + `}`)
		if code != http.StatusOK {
			t.Fatalf("with %s: status %d, want 200 (%v)", legacy, code, got)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Fatalf("a leftover %s changed the answer:\nwithout: %v\nwith:    %v", legacy, plain, got)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/j1: status %d, want 404", resp.StatusCode)
	}
}

// TestBiasedCandidatesPerRequest: biased_candidates counts the request's own
// analysis, so repeating a request on one server repeats the answer, while
// the server-wide biased_attrs counter still sums every request.
func TestBiasedCandidatesPerRequest(t *testing.T) {
	srv, metrics := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 3
	var got []int
	for i := 0; i < n; i++ {
		code, body := postExplain(t, ts.URL, ExplainRequest{SQL: testSQL})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, code, body)
		}
		var er ExplainResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("request %d: %v (%s)", i, err, body)
		}
		got = append(got, er.BiasedCandidates)
	}
	if got[0] == 0 {
		t.Fatal("biased_candidates = 0: the fixture no longer exercises IPW")
	}
	for i, b := range got {
		if b != got[0] {
			t.Fatalf("biased_candidates per request = %v, want the same %d each time (request %d)", got, got[0], i)
		}
	}
	if total := metrics.Get(obs.BiasedAttrs); total != int64(n*got[0]) {
		t.Fatalf("%s = %d, want %d (%d requests × %d)", obs.BiasedAttrs, total, n*got[0], n, got[0])
	}
}

// TestDrainTimeoutCancelsRunningRequest: -drain-timeout bounds shutdown even
// when a running request's own deadline is far later. The request parks in a
// KG lookup that returns only when its context ends; past the drain bound
// its connection is dropped, which cancels it, and Serve reports the
// timeout instead of waiting out the request's 10 s.
func TestDrainTimeoutCancelsRunningRequest(t *testing.T) {
	world, ds := fixture(t)
	gate := &gatedSource{Source: world.Graph, entered: make(chan struct{}), release: make(chan struct{})}
	metrics := obs.NewCounters()
	sess := nexus.NewSessionFromSource(gate, &nexus.Options{Hops: 1, ExtractCache: nexus.NewExtractionCache(metrics)})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	srv := New(Config{Session: sess, Metrics: metrics, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln, 300*time.Millisecond) }()

	answered := make(chan struct{})
	go func() {
		defer close(answered)
		body, _ := json.Marshal(ExplainRequest{SQL: testSQL, TimeoutMS: 10000})
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/explain", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-gate.entered
	start := time.Now()
	cancel()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("Serve returned nil after dropping a running request")
		}
		t.Logf("Serve returned after %v: %v", time.Since(start), err)
	case <-time.After(3 * time.Second):
		t.Fatal("Serve still draining 3s after a 300ms drain timeout")
	}
	select {
	case <-answered:
	case <-time.After(3 * time.Second):
		t.Fatal("the dropped request's client never returned")
	}
}

// TestBadRequests covers the 400 envelope.
func TestBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"missing sql", "{}"},
		{"unparsable query", `{"sql":"this is not sql"}`},
		{"unknown table", `{"sql":"SELECT a, avg(b) FROM nope GROUP BY a"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want 400; body: %s", resp.StatusCode, b)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if eb.Kind != "bad_request" || eb.Error == "" {
				t.Fatalf("bad envelope: %+v", eb)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// gauge reads one unlabelled nexusd gauge from GET /metrics.
func gauge(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prefix := "nexusd_" + name + " "
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}
