package nexus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nexus/internal/extract"
	"nexus/internal/obs"
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
	c := NewExtractionCache(obs.NewCounters())
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
	for c.Hits() == 0 {
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
	c := NewExtractionCache(obs.NewCounters())
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
	if h, m := c.Hits(), c.Misses(); h != 1 || h+m != lookups {
		t.Fatalf("hits=%d misses=%d, want 1 hit and %d lookups in all", h, m, lookups)
	}
}
