package reportcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/obs"
)

func mustGet(t *testing.T, c *Cache, key string, compute func() ([]byte, error)) ([]byte, Outcome) {
	t.Helper()
	data, out, err := c.Get(context.Background(), key, compute)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return data, out
}

func constant(s string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(s), nil }
}

func TestHitReturnsIdenticalBytes(t *testing.T) {
	ctrs := obs.NewCounters()
	c := New(Config{Counters: ctrs})
	cold, out := mustGet(t, c, "k", constant("report-bytes"))
	if out != OutcomeMiss {
		t.Fatalf("first lookup outcome = %v, want miss", out)
	}
	warm, out := mustGet(t, c, "k", func() ([]byte, error) {
		t.Fatal("hit must not recompute")
		return nil, nil
	})
	if out != OutcomeHit {
		t.Fatalf("second lookup outcome = %v, want hit", out)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("hit bytes %q differ from cold bytes %q", warm, cold)
	}
	if h, m := ctrs.Get(obs.ReportCacheHits), ctrs.Get(obs.ReportCacheMisses); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}
}

// TestSingleFlightSharesOneComputation pins the shared outcome: N waiters
// joining while the leader computes observe exactly one computation.
func TestSingleFlightSharesOneComputation(t *testing.T) {
	ctrs := obs.NewCounters()
	c := New(Config{Counters: ctrs})
	const waiters = 8
	var computations int32
	computing := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		data, out, err := c.Get(context.Background(), "k", func() ([]byte, error) {
			atomic.AddInt32(&computations, 1)
			close(computing)
			<-release
			return []byte("once"), nil
		})
		if err != nil || out != OutcomeMiss || string(data) != "once" {
			t.Errorf("leader: data=%q out=%v err=%v", data, out, err)
		}
	}()

	<-computing // the leader is inside compute; everyone else must share
	results := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, out, err := c.Get(context.Background(), "k", func() ([]byte, error) {
				atomic.AddInt32(&computations, 1)
				return []byte("dup"), nil
			})
			results[i] = out
			if err != nil || string(data) != "once" {
				t.Errorf("waiter %d: data=%q err=%v", i, data, err)
			}
		}(i)
	}
	// Give the waiters time to join the in-flight entry, then release.
	for ctrs.Get(obs.ReportCacheShared) < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&computations); n != 1 {
		t.Fatalf("computations = %d, want 1", n)
	}
	for i, out := range results {
		if out != OutcomeShared {
			t.Fatalf("waiter %d outcome = %v, want shared", i, out)
		}
	}
	if got := ctrs.Get(obs.ReportCacheShared); got != waiters {
		t.Fatalf("%s = %d, want %d", obs.ReportCacheShared, got, waiters)
	}
}

// TestErrorEvicted: a failed computation must not be served to any later
// request — the next Get recomputes.
func TestErrorEvicted(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	_, out, err := c.Get(context.Background(), "k", func() ([]byte, error) { return nil, boom })
	if out != OutcomeMiss || !errors.Is(err, boom) {
		t.Fatalf("failing lookup: out=%v err=%v", out, err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after failure = %d, want 0 (stale failures must be evicted)", c.Len())
	}
	data, out := mustGet(t, c, "k", constant("fresh"))
	if out != OutcomeMiss || string(data) != "fresh" {
		t.Fatalf("retry after failure: data=%q out=%v, want fresh miss", data, out)
	}
}

func TestLRUEviction(t *testing.T) {
	ctrs := obs.NewCounters()
	c := New(Config{MaxEntries: 2, Counters: ctrs})
	mustGet(t, c, "a", constant("a"))
	mustGet(t, c, "b", constant("b"))
	mustGet(t, c, "a", constant("a")) // refresh a; b is now LRU
	mustGet(t, c, "c", constant("c")) // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, out := mustGet(t, c, "a", constant("a2")); out != OutcomeHit {
		t.Fatalf("a should have survived (outcome %v)", out)
	}
	if _, out := mustGet(t, c, "b", constant("b2")); out != OutcomeMiss {
		t.Fatalf("b should have been evicted (outcome %v)", out)
	}
	if ev := ctrs.Get(obs.ReportCacheEvictions); ev < 1 {
		t.Fatalf("%s = %d, want >= 1", obs.ReportCacheEvictions, ev)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(Config{TTL: time.Millisecond})
	mustGet(t, c, "k", constant("old"))
	time.Sleep(5 * time.Millisecond)
	data, out := mustGet(t, c, "k", constant("new"))
	if out != OutcomeMiss || string(data) != "new" {
		t.Fatalf("post-TTL lookup: data=%q out=%v, want recomputed miss", data, out)
	}
	// Negative TTL disables expiry.
	c = New(Config{TTL: -1})
	mustGet(t, c, "k", constant("kept"))
	time.Sleep(2 * time.Millisecond)
	if _, out := mustGet(t, c, "k", constant("x")); out != OutcomeHit {
		t.Fatalf("TTL<0 must disable expiry (outcome %v)", out)
	}
}

// TestWaiterHonoursContext: a waiter whose context ends mid-flight unblocks
// with the context error; the computation itself keeps running for others.
func TestWaiterHonoursContext(t *testing.T) {
	c := New(Config{})
	computing := make(chan struct{})
	release := make(chan struct{})
	go c.Get(context.Background(), "k", func() ([]byte, error) {
		close(computing)
		<-release
		return []byte("late"), nil
	})
	<-computing
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Get(ctx, "k", constant("x"))
	if out != OutcomeShared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: out=%v err=%v", out, err)
	}
	close(release)
	// The leader's result is still cached for later requests.
	for i := 0; i < 100; i++ {
		if c.Len() == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	data, outcome := mustGet(t, c, "k", constant("x"))
	if outcome != OutcomeHit || string(data) != "late" {
		t.Fatalf("post-cancel lookup: data=%q out=%v, want cached hit", data, outcome)
	}
}

func TestNilCacheComputesDirectly(t *testing.T) {
	var c *Cache
	data, out, err := c.Get(context.Background(), "k", constant("direct"))
	if err != nil || out != OutcomeMiss || string(data) != "direct" {
		t.Fatalf("nil cache: data=%q out=%v err=%v", data, out, err)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache accessors must be zero no-ops")
	}
}

// TestConcurrentDistinctKeys hammers the cache with overlapping keys under
// the race detector: every result must match its key's bytes.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				want := "v:" + key
				data, _, err := c.Get(context.Background(), key, constant(want))
				if err != nil || string(data) != want {
					t.Errorf("key %s: data=%q err=%v", key, data, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{OutcomeMiss: "miss", OutcomeHit: "hit", OutcomeShared: "shared"} {
		if out.String() != want {
			t.Fatalf("%d.String() = %q, want %q", out, out.String(), want)
		}
	}
}
