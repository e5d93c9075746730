package nexus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nexus/internal/extract"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/table"
	"nexus/internal/workload"
)

// TestExtractionCacheEvictsFailures is the regression test for the
// failure-eviction behavior: a failed extraction (canonically, the
// extracting request got cancelled, or a remote KG backend was
// unreachable) must not be cached, so the next request over the same key
// retries instead of replaying the stale error forever.
func TestExtractionCacheEvictsFailures(t *testing.T) {
	ctx := context.Background()
	c := NewExtractionCache(nil)
	boom := errors.New("kg backend unreachable")
	calls := 0

	_, hit, err := c.get(ctx, "k", func() (*extract.Extraction, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}

	// The failed entry must be gone: the next get runs fn again and, now
	// that the backend recovered, caches the success.
	want := &extract.Extraction{}
	ex, hit, err := c.get(ctx, "k", func() (*extract.Extraction, error) {
		calls++
		return want, nil
	})
	if err != nil || hit || ex != want {
		t.Fatalf("retry after failure: ex=%p hit=%v err=%v", ex, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (failure evicted, success retried)", calls)
	}

	// The success stays cached.
	ex, hit, err = c.get(ctx, "k", func() (*extract.Extraction, error) {
		calls++
		return nil, errors.New("should not run")
	})
	if err != nil || !hit || ex != want || calls != 2 {
		t.Fatalf("cached success: ex=%p hit=%v err=%v calls=%d", ex, hit, err, calls)
	}
}

// TestExtractionCacheFailureUnblocksWaiters pins the singleflight half of
// the same property: concurrent waiters on a failing extraction all
// receive the error, and the key is still evicted afterwards.
func TestExtractionCacheFailureUnblocksWaiters(t *testing.T) {
	ctx := context.Background()
	counters := obs.NewCounters()
	c := NewExtractionCache(counters)
	boom := errors.New("transient")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.get(ctx, "k", func() (*extract.Extraction, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()

	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.get(ctx, "k", func() (*extract.Extraction, error) {
			return nil, errors.New("waiter must not extract")
		})
		if !hit || !errors.Is(err, boom) {
			t.Errorf("waiter: hit=%v err=%v", hit, err)
		}
	}()
	// Hold the extraction open until the waiter has joined it (the hit
	// counter increments before the waiter blocks on done), so the waiter
	// cannot arrive after eviction and start its own extraction.
	for counters.Get(obs.ExtractCacheHits) == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	// Key evicted: a fresh get extracts again.
	_, hit, err := c.get(ctx, "k", func() (*extract.Extraction, error) {
		return &extract.Extraction{}, nil
	})
	if hit || err != nil {
		t.Fatalf("post-failure get: hit=%v err=%v", hit, err)
	}
}

// TestExtractionCacheBounded pins the LRU bound: the key embeds the WHERE
// clause and every extraction pins row-length vectors, so a serving process
// must not retain one per context ever asked. Capacity+1 distinct contexts
// evict the first, which then re-extracts and counts as a miss.
func TestExtractionCacheBounded(t *testing.T) {
	ctx := context.Background()
	counters := obs.NewCounters()
	c := NewExtractionCache(counters)
	extractions := map[string]int{}
	lookup := func(key string) bool {
		_, hit, err := c.get(ctx, key, func() (*extract.Extraction, error) {
			extractions[key]++
			return &extract.Extraction{}, nil
		})
		if err != nil {
			t.Fatalf("get(%q): %v", key, err)
		}
		return hit
	}
	key := func(i int) string { return fmt.Sprintf("SO|where=Country = 'c%d'", i) }
	for i := 0; i <= extractionCacheEntries; i++ {
		if lookup(key(i)) {
			t.Fatalf("first lookup of %q was a hit", key(i))
		}
	}
	if !lookup(key(extractionCacheEntries)) {
		t.Fatal("the most recent context was not retained")
	}
	if lookup(key(0)) || extractions[key(0)] != 2 {
		t.Fatalf("the least recently used context was retained past the bound (extracted %d times, want 2)", extractions[key(0)])
	}
	lookups := int64(extractionCacheEntries + 3)
	if h, m := counters.Get(obs.ExtractCacheHits), counters.Get(obs.ExtractCacheMisses); h != 1 || h+m != lookups {
		t.Fatalf("hits=%d misses=%d, want 1 hit and %d lookups in all", h, m, lookups)
	}
}

// TestReportKeyCanonicalAndScoped pins the report-cache key, the one thing
// that keeps reports of different data apart (the cache has no version
// stamp): SQL that means the same query maps to one key, and every input that
// shapes the report — the options, the session's depth, the registered rows,
// the KG — maps to a key of its own.
func TestReportKeyCanonicalAndScoped(t *testing.T) {
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	ds, err := workload.ByName(world, "forbes", 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	session := func(src kg.Source, hops int, tbl *table.Table) *Session {
		s := NewSessionFromSource(src, &Options{Hops: hops})
		s.RegisterTable(ds.Name, tbl, ds.LinkColumns...)
		s.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
		return s
	}
	key := func(s *Session, sql string, subgroups int, tau float64) string {
		t.Helper()
		k, err := s.ReportKey(sql, subgroups, tau)
		if err != nil {
			t.Fatalf("ReportKey(%q): %v", sql, err)
		}
		return k
	}
	const sql = "SELECT Category, avg(Pay) FROM Forbes WHERE Year >= 2010 AND Category != 'Actors' GROUP BY Category"
	base := session(world.Graph, 1, ds.Table)
	want := key(base, sql, 3, 0.2)

	for _, same := range []string{
		"SELECT Category, avg(Pay) FROM Forbes WHERE Category != 'Actors' AND Year >= 2010 GROUP BY Category",
		"select  Category ,AVG( Pay )\n  from Forbes where Year>=2010 and Category!='Actors'   group by Category",
	} {
		if got := key(base, same, 3, 0.2); got != want {
			t.Errorf("%q: key %q, want %q (the same query)", same, got, want)
		}
	}

	n := ds.Table.NumRows()
	rows := make([]int, n+1)
	for i := range rows {
		rows[i] = min(i, n-1)
	}
	for name, got := range map[string]string{
		"subgroups":    key(base, sql, 5, 0.2),
		"tau":          key(base, sql, 3, 0.3),
		"hops":         key(session(world.Graph, 2, ds.Table), sql, 3, 0.2),
		"one more row": key(session(world.Graph, 1, ds.Table.Gather(rows)), sql, 3, 0.2),
		"KG-less":      key(session(nil, 1, ds.Table), sql, 3, 0.2),
	} {
		if got == want {
			t.Errorf("%s: key unchanged (%q)", name, got)
		}
	}
}
