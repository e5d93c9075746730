package kgremote

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/kg"
	"nexus/internal/kgserve"
	"nexus/internal/kgwire"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

func testGraph() *kg.Graph {
	g := kg.NewGraph()
	de := g.AddEntity("Germany", "Country")
	fr := g.AddEntity("France", "Country")
	eu := g.AddEntity("Euro", "Currency")
	g.Set(de, "HDI", kg.Num(0.94))
	g.Set(fr, "HDI", kg.Num(0.90))
	g.Set(de, "Currency", kg.Ent(eu))
	g.Set(fr, "Currency", kg.Ent(eu))
	g.Add(de, "Ethnic Group", kg.Str("a"))
	g.Add(de, "Ethnic Group", kg.Str("b"))
	return g
}

// serve starts an httptest server for g and returns a client over it.
func serve(t *testing.T, g *kg.Graph, scfg kgserve.Config, copts Options) (*Client, *kgserve.Server) {
	t.Helper()
	scfg.Source = g
	srv := kgserve.New(scfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return New(hs.URL, copts), srv
}

// TestRoundTrip pins client-through-server results to the graph's own
// answers for every kg.Source method.
func TestRoundTrip(t *testing.T) {
	ctx := context.Background()
	g := testGraph()
	c, _ := serve(t, g, kgserve.Config{}, Options{})

	values := []string{"Germany", "france", "Narnia", ""}
	want, _ := g.Resolve(ctx, values)
	got, err := c.Resolve(ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Resolve = %+v, want %+v", got, want)
	}

	ids := []kg.EntityID{2, 0, 1}
	wantE, _ := g.Entities(ctx, ids)
	gotE, err := c.Entities(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Fatalf("Entities = %+v, want %+v", gotE, wantE)
	}

	wantP, _ := g.GetProperties(ctx, ids)
	gotP, err := c.GetProperties(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("GetProperties = %+v, want %+v", gotP, wantP)
	}
}

// TestNonFiniteNumbersCrossTheWire compares remote and in-memory
// GetProperties on a graph holding the floats JSON numbers cannot carry:
// every value arrives bit for bit, in order.
func TestNonFiniteNumbersCrossTheWire(t *testing.T) {
	ctx := context.Background()
	g := testGraph()
	de, _ := g.Lookup("Germany")
	g.Set(de, "Odd", kg.Num(math.NaN()), kg.Num(math.Inf(1)), kg.Num(math.Inf(-1)),
		kg.Num(math.Copysign(0, -1)), kg.Str("a"))
	c, _ := serve(t, g, kgserve.Config{}, Options{})
	ids := []kg.EntityID{de, 1, 2}
	want, _ := g.GetProperties(ctx, ids)
	got, err := c.GetProperties(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("entity %d: %d properties, want %d", ids[i], len(got[i]), len(want[i]))
		}
		for name, wv := range want[i] {
			gv := got[i][name]
			if len(gv) != len(wv) {
				t.Fatalf("entity %d, %q: %v, want %v", ids[i], name, gv, wv)
			}
			for k, w := range wv {
				if g := gv[k]; g.Kind != w.Kind || g.Str != w.Str || g.Ent != w.Ent || math.Float64bits(g.Num) != math.Float64bits(w.Num) {
					t.Errorf("entity %d, %q, value %d: %#v, want %#v", ids[i], name, k, g, w)
				}
			}
		}
	}
}

// TestMalformedTableIsPermanent asserts a properties reply that decodes but
// breaks its table's shape fails the call at once, naming the break,
// without a retry.
func TestMalformedTableIsPermanent(t *testing.T) {
	var requests atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		io.WriteString(w, `{"names":["p"],"runs":[1],"props":[3],"kinds":"n","nums":"AAAAAAAA8D8="}`)
	}))
	defer hs.Close()
	c := New(hs.URL, Options{MaxRetries: 5, RetryBase: time.Millisecond})
	_, err := c.GetProperties(context.Background(), []kg.EntityID{0})
	if err == nil || !strings.Contains(err.Error(), "property index 3 out of range") {
		t.Fatalf("error = %v, want the out-of-range property index", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("malformed table retried: %d requests", n)
	}
}

// TestCacheServesRepeats asserts the second identical batch is served
// entirely from the LRU: no new HTTP requests, hits counted.
func TestCacheServesRepeats(t *testing.T) {
	ctx := context.Background()
	counters := obs.NewCounters()
	c, srv := serve(t, testGraph(), kgserve.Config{}, Options{Counters: counters})

	ids := []kg.EntityID{0, 1}
	if _, err := c.GetProperties(ctx, ids); err != nil {
		t.Fatal(err)
	}
	reqs := srv.Requests(kgwire.PathProperties)
	if reqs == 0 {
		t.Fatal("first fetch issued no requests")
	}
	if _, err := c.GetProperties(ctx, ids); err != nil {
		t.Fatal(err)
	}
	if got := srv.Requests(kgwire.PathProperties); got != reqs {
		t.Fatalf("cached fetch issued %d extra requests", got-reqs)
	}
	snap := counters.Snapshot()
	if snap[obs.KGCacheHits] != 2 || snap[obs.KGCacheMisses] != 2 {
		t.Fatalf("cache counters = hits %d misses %d, want 2/2", snap[obs.KGCacheHits], snap[obs.KGCacheMisses])
	}
}

// TestChunkedBatches asserts oversized batches split into
// ceil(n/batchSize) requests, all of which succeed and reassemble in order.
func TestChunkedBatches(t *testing.T) {
	ctx := context.Background()
	g := kg.NewGraph()
	var ids []kg.EntityID
	for i := 0; i < 2*batchSize+1; i++ {
		ids = append(ids, g.AddEntity(fmt.Sprintf("e%d", i), "X"))
	}
	c, srv := serve(t, g, kgserve.Config{}, Options{})
	ents, err := c.Entities(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		if e.ID != ids[i] {
			t.Fatalf("ents[%d] = %+v", i, e)
		}
	}
	if got := srv.Requests(kgwire.PathEntities); got != 3 {
		t.Fatalf("issued %d requests for %d ids at batch size %d, want 3", got, len(ids), batchSize)
	}
}

// TestRetryOn500 asserts injected server faults are retried to success and
// counted as retries.
func TestRetryOn500(t *testing.T) {
	ctx := context.Background()
	counters := obs.NewCounters()
	c, _ := serve(t, testGraph(),
		kgserve.Config{ServerConfig: rpc.ServerConfig{FailRate: 0.5, Seed: 7}},
		Options{MaxRetries: 20, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, Counters: counters})
	links, err := c.Resolve(ctx, []string{"Germany"})
	if err != nil {
		t.Fatal(err)
	}
	if links[0].Outcome != kg.Linked {
		t.Fatalf("link = %+v", links[0])
	}
	snap := counters.Snapshot()
	if snap[obs.KGHTTPRequests] < 1 {
		t.Fatal("no requests counted")
	}
	if snap[obs.KGHTTPRequests] != snap[obs.KGHTTPRetries]+1 {
		t.Fatalf("requests %d, retries %d: want requests = retries+1",
			snap[obs.KGHTTPRequests], snap[obs.KGHTTPRetries])
	}
}

// TestBadRequestIsPermanent asserts 4xx responses fail immediately without
// burning retries.
func TestBadRequestIsPermanent(t *testing.T) {
	ctx := context.Background()
	counters := obs.NewCounters()
	c, _ := serve(t, testGraph(), kgserve.Config{}, Options{MaxRetries: 5, Counters: counters})
	_, err := c.Entities(ctx, []kg.EntityID{999})
	if err == nil {
		t.Fatal("expected error for unknown id")
	}
	if !strings.Contains(err.Error(), "unknown entity") {
		t.Fatalf("error = %v", err)
	}
	snap := counters.Snapshot()
	if snap[obs.KGHTTPRequests] != 1 || snap[obs.KGHTTPRetries] != 0 {
		t.Fatalf("4xx retried: requests %d retries %d", snap[obs.KGHTTPRequests], snap[obs.KGHTTPRetries])
	}
}

// TestGivesUpAfterRetries asserts a persistently failing server surfaces
// the last error after MaxRetries+1 attempts.
func TestGivesUpAfterRetries(t *testing.T) {
	ctx := context.Background()
	counters := obs.NewCounters()
	c, _ := serve(t, testGraph(),
		kgserve.Config{ServerConfig: rpc.ServerConfig{FailRate: 0.999999, Seed: 3}},
		Options{MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Counters: counters})
	_, err := c.Resolve(ctx, []string{"Germany"})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("error = %v", err)
	}
	if snap := counters.Snapshot(); snap[obs.KGHTTPRequests] != 3 {
		t.Fatalf("attempts = %d, want 3", snap[obs.KGHTTPRequests])
	}
}

// TestContextCancelStopsRetries asserts cancellation cuts the retry loop
// short.
func TestContextCancelStopsRetries(t *testing.T) {
	c, _ := serve(t, testGraph(),
		kgserve.Config{ServerConfig: rpc.ServerConfig{FailRate: 0.999999, Seed: 3}},
		Options{MaxRetries: 1000, RetryBase: 50 * time.Millisecond, RetryMax: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Resolve(ctx, []string{"Germany"})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the retry loop")
	}
}
