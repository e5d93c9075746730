package nexus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/server"
	"nexus/internal/workload"
)

// TestServeClosedLoopCounts drives an in-process nexusd (report cache +
// bounded job queue over the Forbes fixture) with 16 closed-loop clients —
// 1,200 requests over six query shapes, each request's shape drawn up front
// from one seeded generator — and pins the outcomes that hold under any
// goroutine schedule: concurrency stays under the queue depth, so nothing is
// rejected, and single-flight admits exactly one cache miss per distinct
// shape. Serving latency is the benchmark's serve_mix workload, not this
// test's.
func TestServeClosedLoopCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("1,200-request load run; skipped in -short mode")
	}
	const (
		requests    = 1200
		concurrency = 16
	)

	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	ds, err := workload.ByName(world, "forbes", 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewCounters()
	sess := nexus.NewSession(world.Graph, &nexus.Options{
		Hops:         1,
		Metrics:      metrics,
		ExtractCache: nexus.NewExtractionCache(metrics),
	})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	srv := server.New(server.Config{
		Session:     sess,
		Workers:     4,
		QueueDepth:  64,
		Metrics:     metrics,
		ReportCache: reportcache.New(reportcache.Config{Counters: metrics}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln, 10*time.Second) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()

	mix := []server.ExplainRequest{
		{SQL: "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category"},
		{SQL: "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category", Subgroups: 3},
		{SQL: "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category", Subgroups: 5},
		{SQL: "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year"},
		{SQL: "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year", Subgroups: 3},
		{SQL: "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year", Subgroups: 5},
	}
	// The schedule is fixed before the first client starts: request i's
	// shape does not depend on worker timing.
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, requests)
	for i := range bodies {
		if bodies[i], err = json.Marshal(mix[rng.Intn(len(mix))]); err != nil {
			t.Fatal(err)
		}
	}

	var (
		next                       atomic.Int64
		mu                         sync.Mutex
		sent, ok, rejected, failed int
		caches                     = map[string]int{} // X-Nexus-Cache of the 200s
		wg                         sync.WaitGroup
	)
	url := "http://" + ln.Addr().String() + "/v1/explain"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}, Timeout: 2 * time.Minute}
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < requests; i = next.Add(1) - 1 {
				status, cache := 0, ""
				if resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i])); err == nil {
					status, cache = resp.StatusCode, resp.Header.Get(server.CacheHeader)
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
					resp.Body.Close()
				}
				mu.Lock()
				sent++
				switch status {
				case http.StatusOK:
					ok++
					caches[cache]++
				case http.StatusTooManyRequests:
					rejected++
				default:
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if failed != 0 {
		t.Errorf("%d requests failed", failed)
	}
	if rejected != 0 {
		t.Errorf("unexpected admission refusals: rejected=%d (concurrency must stay under the queue depth)", rejected)
	}
	if misses := caches["miss"]; misses != len(mix) {
		t.Errorf("cache_misses = %d, want %d (one per distinct shape under single-flight)", misses, len(mix))
	}
	if ok != sent {
		t.Errorf("not every request succeeded: %d/%d", ok, sent)
	}
	if ok == 0 || float64(caches["hit"]+caches["shared"])/float64(ok) < 0.9 {
		t.Errorf("cache hits+shared = %d of %d successes, want ≥ 0.9 at %d requests over %d shapes",
			caches["hit"]+caches["shared"], ok, requests, len(mix))
	}
}
