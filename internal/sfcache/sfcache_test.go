package sfcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nexus/internal/obs"
)

func newTestCache(max int) (*Cache[string], *obs.Counters) {
	ctrs := obs.NewCounters()
	return New[string](Config{MaxEntries: max, Counters: ctrs,
		Hits: "hits", Misses: "misses", Shared: "shared", Evictions: "evictions"}), ctrs
}

// joinWaiters starts n Gets of key that must join the computation already in
// flight, and returns once all of them have (the shared counter increments
// before a waiter blocks). results[i] is waiter i's value or error text.
func joinWaiters(t *testing.T, c *Cache[string], ctrs *obs.Counters, key string, n int, compute func() (string, error)) (wg *sync.WaitGroup, results []string) {
	t.Helper()
	wg = new(sync.WaitGroup)
	results = make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Get(context.Background(), key, compute)
			if err != nil {
				v = "error: " + err.Error()
			}
			results[i] = v
		}(i)
	}
	for ctrs.Get("shared") < int64(n) {
		runtime.Gosched() // each waiter counts itself before it blocks
	}
	return wg, results
}

// A leader that fails because its own context ended must not hand that
// failure to waiters whose contexts are live: exactly one of them leads one
// further computation and all of them get its value.
func TestWaiterDoesNotInheritLeaderCancellation(t *testing.T) {
	c, ctrs := newTestCache(4)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	computing := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(leaderCtx, "k", func() (string, error) {
			close(computing)
			<-release
			return "", fmt.Errorf("walk: %w", leaderCtx.Err())
		})
		leaderDone <- err
	}()
	<-computing

	var recomputes atomic.Int32
	wg, results := joinWaiters(t, c, ctrs, "k", 3, func() (string, error) {
		recomputes.Add(1)
		return "fresh", nil
	})
	cancelLeader()
	close(release)
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want its own context.Canceled", err)
	}
	wg.Wait()
	for i, r := range results {
		if r != "fresh" {
			t.Fatalf("waiter %d got %q, want the recomputed value", i, r)
		}
	}
	if n := recomputes.Load(); n != 1 {
		t.Fatalf("waiters ran %d further computations, want exactly 1", n)
	}
	if v, out, err := c.Get(context.Background(), "k", nil); err != nil || out != Hit || v != "fresh" {
		t.Fatalf("after the retry: %q %v %v, want a hit on the recomputed value", v, out, err)
	}
}

// A failure that is not the leader's context ending is about the key, not
// the leader: every joined waiter shares it, nobody recomputes, and the
// entry is evicted so a later Get retries.
func TestOrdinaryFailureSharedAndEvicted(t *testing.T) {
	c, ctrs := newTestCache(4)
	boom := errors.New("backend unreachable")
	computing := make(chan struct{})
	release := make(chan struct{})
	go c.Get(context.Background(), "k", func() (string, error) {
		close(computing)
		<-release
		return "", boom
	})
	<-computing
	wg, results := joinWaiters(t, c, ctrs, "k", 2, func() (string, error) {
		t.Error("a waiter must not compute after an ordinary failure")
		return "", nil
	})
	close(release)
	wg.Wait()
	for i, r := range results {
		if r != "error: "+boom.Error() {
			t.Fatalf("waiter %d got %q, want the leader's failure", i, r)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after a failure, want 0", c.Len())
	}
	if v, out, err := c.Get(context.Background(), "k", func() (string, error) { return "ok", nil }); err != nil || out != Miss || v != "ok" {
		t.Fatalf("retry after failure: %q %v %v, want a fresh miss", v, out, err)
	}
}

// A waiter whose own context has ended too reports its own ctx.Err(), not
// the leader's.
func TestEndedWaiterReportsOwnContext(t *testing.T) {
	c, _ := newTestCache(4)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	computing := make(chan struct{})
	release := make(chan struct{})
	go c.Get(leaderCtx, "k", func() (string, error) {
		close(computing)
		<-release
		return "", leaderCtx.Err()
	})
	<-computing
	cancelLeader()
	waiterCtx, cancelWaiter := context.WithTimeout(context.Background(), 0)
	defer cancelWaiter()
	defer close(release)
	_, out, err := c.Get(waiterCtx, "k", nil)
	if out != Shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ended waiter: %v %v, want shared + its own DeadlineExceeded", out, err)
	}
}
