package nexus_test

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/loadgen"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/server"
	"nexus/internal/workload"
)

// TestServeClosedLoopCounts drives an in-process nexusd (report cache +
// tiered scheduler over the Forbes fixture) with internal/loadgen — 16
// closed-loop clients, 1,200 mixed-priority requests over six query shapes —
// and pins the outcomes that hold under any goroutine schedule: concurrency
// stays under both queue depths, so nothing is shed or rejected, and
// single-flight admits exactly one cache miss per distinct shape.
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
		Session:         sess,
		Workers:         4,
		QueueDepth:      64,
		BatchQueueDepth: 256,
		Metrics:         metrics,
		ReportCache: reportcache.New(reportcache.Config{
			Version:  sess.DatasetFingerprint() + "/" + sess.KGVersion(),
			Counters: metrics,
		}),
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

	mix := []loadgen.Query{
		{SQL: "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category"},
		{SQL: "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category", Subgroups: 3},
		{SQL: "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category", Subgroups: 5},
		{SQL: "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year"},
		{SQL: "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year", Subgroups: 3},
		{SQL: "SELECT Year, avg(Pay) FROM Forbes GROUP BY Year", Subgroups: 5},
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:       "http://" + ln.Addr().String(),
		Client:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}},
		Requests:      requests,
		Concurrency:   concurrency,
		BatchFraction: 0.3,
		Queries:       mix,
		Seed:          1,
		Timeout:       2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	if errs := res.Interactive.Errors + res.Batch.Errors; errs != 0 {
		t.Errorf("%d requests failed", errs)
	}
	if res.Shed() != 0 || res.Interactive.Rejected+res.Batch.Rejected != 0 {
		t.Errorf("unexpected admission refusals: shed=%d rejected=%d (concurrency must stay under the queue depths)",
			res.Shed(), res.Interactive.Rejected+res.Batch.Rejected)
	}
	if misses := res.Interactive.CacheMisses + res.Batch.CacheMisses; misses != len(mix) {
		t.Errorf("cache_misses = %d, want %d (one per distinct shape under single-flight)", misses, len(mix))
	}
	if res.Interactive.OK != res.Interactive.Sent || res.Batch.OK != res.Batch.Sent {
		t.Errorf("not every request succeeded: interactive %d/%d, batch %d/%d",
			res.Interactive.OK, res.Interactive.Sent, res.Batch.OK, res.Batch.Sent)
	}
	if ratio := res.CacheHitRatio(); ratio < 0.9 {
		t.Errorf("cache_hit_ratio = %g, want ≥ 0.9 at %d requests over %d shapes", ratio, requests, len(mix))
	}
}
