package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
)

// postExplainFull is postExplain plus the X-Nexus-Cache header.
func postExplainFull(t *testing.T, url string, req ExplainRequest) (int, []byte, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/explain: %v", err)
		return 0, nil, ""
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header.Get(CacheHeader)
}

func errKind(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("bad error body %q: %v", body, err)
	}
	return eb.Kind
}

// newCachedServer is newTestServer plus a report cache sharing the metrics
// counter set, mirroring cmd/nexusd's -report-cache wiring.
func newCachedServer(t *testing.T, cfg Config) (*Server, *obs.Counters) {
	t.Helper()
	srv, metrics := newTestServer(t, cfg)
	srv.cache = reportcache.New(reportcache.Config{Counters: metrics})
	return srv, metrics
}

// TestReportCacheHitByteIdentical is the byte-identity acceptance pin: a
// cache hit serves exactly the bytes the cold compute produced, runs no
// second job, and the outcome header distinguishes the two.
func TestReportCacheHitByteIdentical(t *testing.T) {
	srv, metrics := newTestServer(t, Config{Workers: 2})
	// Wire the cache to the same counter set the server reports into.
	cache := reportcache.New(reportcache.Config{Counters: metrics})
	srv.cache = cache
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, cold, hdr := postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL, Subgroups: 2})
	if code != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", code, cold)
	}
	if hdr != "miss" {
		t.Fatalf("cold %s = %q, want \"miss\"", CacheHeader, hdr)
	}
	code, warm, hdr := postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL, Subgroups: 2})
	if code != http.StatusOK {
		t.Fatalf("warm: status %d (%s)", code, warm)
	}
	if hdr != "hit" {
		t.Fatalf("warm %s = %q, want \"hit\"", CacheHeader, hdr)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("hit is not byte-identical to the cold compute:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := metrics.Get(CtrCompleted); got != 1 {
		t.Fatalf("%s = %d, want 1 (the hit must not run a job)", CtrCompleted, got)
	}
	if h, m := metrics.Get(obs.ReportCacheHits), metrics.Get(obs.ReportCacheMisses); h != 1 || m != 1 {
		t.Fatalf("report cache hits=%d misses=%d, want 1/1", h, m)
	}

	// A different query must not hit.
	other := "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year"
	if code, body, hdr := postExplainFull(t, ts.URL, ExplainRequest{SQL: other}); code != http.StatusOK || hdr != "miss" {
		t.Fatalf("other query: status %d header %q (%s)", code, hdr, body)
	}
}

// TestReportCacheSingleFlight: N concurrent identical requests run the
// pipeline once; everyone gets the same bytes.
func TestReportCacheSingleFlight(t *testing.T) {
	srv, metrics := newCachedServer(t, Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _ = postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL})
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, c, bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if got := metrics.Get(CtrCompleted); got != 1 {
		t.Fatalf("%s = %d, want 1 (single flight)", CtrCompleted, got)
	}
	if m := metrics.Get(obs.ReportCacheMisses); m != 1 {
		t.Fatalf("report_cache_misses = %d, want 1", m)
	}
	if h, s := metrics.Get(obs.ReportCacheHits), metrics.Get(obs.ReportCacheShared); h+s != n-1 {
		t.Fatalf("hits(%d)+shared(%d) = %d, want %d", h, s, h+s, n-1)
	}
}

// TestReportCacheErrorNotCached: a failed computation (timeout) is evicted,
// so the next identical request computes fresh instead of replaying the
// stale failure.
func TestReportCacheErrorNotCached(t *testing.T) {
	srv, _ := newCachedServer(t, Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL, TimeoutMS: 1})
	if code != http.StatusRequestTimeout {
		t.Fatalf("timeout request: status %d, want 408 (%s)", code, body)
	}
	if srv.cache.Len() != 0 {
		t.Fatalf("cache retained a failed computation (len=%d)", srv.cache.Len())
	}
	// Same key (TimeoutMS is not part of it) — must recompute and succeed.
	code, body, hdr := postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL})
	if code != http.StatusOK {
		t.Fatalf("retry: status %d (%s)", code, body)
	}
	if hdr != "miss" {
		t.Fatalf("retry %s = %q, want \"miss\"", CacheHeader, hdr)
	}
}

// gatedSource is a KG backend whose name resolution blocks until the test
// opens the gate or the caller's context ends; entered is closed by the
// first call to reach it.
type gatedSource struct {
	kg.Source
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedSource) Resolve(ctx context.Context, values []string) ([]kg.Link, error) {
	g.once.Do(func() { close(g.entered) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Source.Resolve(ctx, values)
}

// TestJoinedRequestDoesNotInheritLeaderTimeout: request A (timeout_ms 1000)
// leads a report-cache computation and request B (default timeout) joins it.
// A's 408 is A's alone — B must not be answered with it but recompute and
// get its 200. A parks in the gated KG lookup until its own deadline has
// passed, so B joins while A is still in flight; the gate opens for B's
// recomputation only once A has been answered.
func TestJoinedRequestDoesNotInheritLeaderTimeout(t *testing.T) {
	world, ds := fixture(t)
	gate := &gatedSource{Source: world.Graph, entered: make(chan struct{}), release: make(chan struct{})}
	metrics := obs.NewCounters()
	sess := nexus.NewSessionFromSource(gate, &nexus.Options{Hops: 1, ExtractCache: nexus.NewExtractionCache(metrics)})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	srv := New(Config{Session: sess, Metrics: metrics, Workers: 1,
		ReportCache: reportcache.New(reportcache.Config{Counters: metrics})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var codeA, codeB int
	var bodyA, bodyB []byte
	var hdrB string
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		codeA, bodyA, _ = postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL, TimeoutMS: 1000})
	}()
	<-gate.entered // A leads and holds the only worker inside the gate
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		codeB, bodyB, hdrB = postExplainFull(t, ts.URL, ExplainRequest{SQL: testSQL})
	}()
	for metrics.Get(obs.ReportCacheShared) == 0 { // B has joined A's computation
		runtime.Gosched()
	}
	<-doneA
	close(gate.release)
	wg.Wait()

	if codeA != http.StatusRequestTimeout || errKind(t, bodyA) != "timeout" {
		t.Fatalf("A (timeout_ms 1000): status %d (%s), want 408 timeout", codeA, bodyA)
	}
	if codeB != http.StatusOK {
		t.Fatalf("B joined A and was answered with A's failure: status %d (%s)", codeB, bodyB)
	}
	if hdrB == "" {
		t.Fatalf("B: no %s header", CacheHeader)
	}
}
