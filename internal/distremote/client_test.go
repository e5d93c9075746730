package distremote

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/distworker"
	"nexus/internal/obs"
	"nexus/internal/rpc"
	"nexus/internal/stats"
)

// testContext mirrors the distworker fixture: T and O share a confounder
// that the candidates track to different degrees.
func testContext(tb testing.TB, n int) *core.ScoreContext {
	tb.Helper()
	rng := stats.NewRNG(42)
	mk := func(name string, card int) *bins.Encoded {
		return &bins.Encoded{Name: name, Card: card, Codes: make([]int32, n)}
	}
	sc := &core.ScoreContext{
		T: mk("T", 3), O: mk("O", 3),
		Cands:   []*bins.Encoded{mk("c0", 4), mk("c1", 4), mk("c2", 4), mk("c3", 4), mk("c4", 4)},
		Weights: make([][]float64, 5),
	}
	for i := 0; i < n; i++ {
		conf := int32(rng.Intn(3))
		sc.T.Codes[i] = (conf + int32(rng.Intn(2))) % 3
		sc.O.Codes[i] = (conf + int32(rng.Intn(2))) % 3
		for c := range sc.Cands {
			if rng.Intn(c+1) == 0 {
				sc.Cands[c].Codes[i] = conf
			} else {
				sc.Cands[c].Codes[i] = int32(rng.Intn(4))
			}
		}
	}
	return sc
}

func startWorkers(tb testing.TB, n int, cfg distworker.Config) ([]string, []*distworker.Server) {
	tb.Helper()
	urls := make([]string, n)
	srvs := make([]*distworker.Server, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		srvs[i] = distworker.New(c)
		hs := httptest.NewServer(srvs[i].Handler())
		tb.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls, srvs
}

func allCands(sc *core.ScoreContext) []int {
	out := make([]int, len(sc.Cands))
	for i := range out {
		out[i] = i
	}
	return out
}

// checkDifferential asserts that every Scorer method returns bit-identical
// results to core.Local on the same context.
func checkDifferential(t *testing.T, sc *core.ScoreContext, s *Scorer) {
	t.Helper()
	local := core.Local{Parallelism: 1}
	ctx := context.Background()

	want, err := local.Relevance(ctx, sc, allCands(sc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Relevance(ctx, sc, allCands(sc))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("relevance %d: remote %v != local %v", i, got[i], want[i])
		}
	}

	seeds := make([]uint64, 50)
	for i := range seeds {
		seeds[i] = 0xfeed + uint64(i)*0x45d9f3b
	}
	spec := core.PermSpec{Cand: 0, Op: core.PermResp, Observed: want[0] / 2, Seeds: seeds, Allow: len(seeds)}
	wantEx, wantRan, err := local.PermBlock(ctx, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	gotEx, gotRan, err := s.PermBlock(ctx, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if gotRan != wantRan {
		t.Errorf("perm ran: remote %d != local %d", gotRan, wantRan)
	}
	for i := range wantEx {
		if gotEx[i] != wantEx[i] {
			t.Errorf("perm exceed %d: remote %v != local %v", i, gotEx[i], wantEx[i])
		}
	}
}

// TestScorerDifferential checks bit-identity against the in-process oracle
// across fleet sizes, with a chunk size small enough to force fan-out.
func TestScorerDifferential(t *testing.T) {
	sc := testContext(t, 512)
	for _, workers := range []int{1, 2, 4} {
		urls, _ := startWorkers(t, workers, distworker.Config{})
		s := New(urls, Options{ChunkSize: 3})
		checkDifferential(t, sc, s)
	}
}

// TestScorerRetriesFaults checks rung 1 of the fault ladder: against a
// fleet injecting 30% HTTP 500s, every result is still bit-identical and
// the retries are visible on the counters — faults cost effort, never
// correctness.
func TestScorerRetriesFaults(t *testing.T) {
	sc := testContext(t, 512)
	ctr := obs.NewCounters()
	urls, srvs := startWorkers(t, 2, distworker.Config{ServerConfig: rpc.ServerConfig{FailRate: 0.3, Seed: 3}})
	s := New(urls, Options{
		ChunkSize: 3, MaxAttempts: 20,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		Counters: ctr,
	})
	checkDifferential(t, sc, s)
	injected := srvs[0].Stats().Injected + srvs[1].Stats().Injected
	if injected == 0 {
		t.Fatal("fault injection never fired; the test is not exercising retries")
	}
	if ctr.Get(obs.DistRetries) == 0 {
		t.Errorf("faults injected (%d) but dist_retries = 0", injected)
	}
	if ctr.Get(obs.DistFallbacks) != 0 {
		t.Errorf("dist_fallbacks = %d; retries should have absorbed every fault", ctr.Get(obs.DistFallbacks))
	}
}

// TestScorerReregistersAfterRestart checks the statelessness contract: when
// a worker loses its datasets (restart, LRU eviction), the client follows
// the 404 "unknown dataset" with a re-registration and retry, transparently.
func TestScorerReregistersAfterRestart(t *testing.T) {
	sc := testContext(t, 256)
	// A swappable worker on a stable URL simulates a restart.
	var cur atomic.Pointer[distworker.Server]
	cur.Store(distworker.New(distworker.Config{}))
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer hs.Close()

	s := New([]string{hs.URL}, Options{ChunkSize: 64})
	if _, err := s.Relevance(context.Background(), sc, allCands(sc)); err != nil {
		t.Fatal(err)
	}
	// "Restart" the worker: fresh server, empty dataset store.
	fresh := distworker.New(distworker.Config{})
	cur.Store(fresh)

	local := core.Local{Parallelism: 1}
	want, _ := local.Relevance(context.Background(), sc, allCands(sc))
	got, err := s.Relevance(context.Background(), sc, allCands(sc))
	if err != nil {
		t.Fatalf("scoring after worker restart: %v", err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("relevance %d after restart: %v != %v", i, got[i], want[i])
		}
	}
	if fresh.Requests("/dist/v1/dataset") == 0 {
		t.Error("client never re-registered with the restarted worker")
	}
}

// TestScorerFallsBackWhenFleetDead checks rung 2: with every worker
// unreachable, results still arrive — computed locally — and the fallback
// is visible on dist_fallbacks.
func TestScorerFallsBackWhenFleetDead(t *testing.T) {
	sc := testContext(t, 256)
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close() // dead on arrival: connection refused
	ctr := obs.NewCounters()
	s := New([]string{hs.URL}, Options{
		ChunkSize: 3, MaxAttempts: 1, Timeout: 250 * time.Millisecond, Counters: ctr,
	})
	checkDifferential(t, sc, s)
	if ctr.Get(obs.DistFallbacks) == 0 {
		t.Error("fleet dead but dist_fallbacks = 0")
	}
}

// TestScorerDisableFallback checks the test escape hatch: with the fallback
// off, a dead fleet is an error, not silent local compute.
func TestScorerDisableFallback(t *testing.T) {
	sc := testContext(t, 64)
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close()
	s := New([]string{hs.URL}, Options{
		MaxAttempts: 1, Timeout: 250 * time.Millisecond, DisableFallback: true,
	})
	if _, err := s.Relevance(context.Background(), sc, allCands(sc)); err == nil {
		t.Fatal("dead fleet with DisableFallback, but Relevance succeeded")
	}
}

// TestScorerCancellation pins the cancellation contract: a cancelled
// context propagates (never silently falls back to local compute), and no
// dispatch goroutine outlives the call.
func TestScorerCancellation(t *testing.T) {
	sc := testContext(t, 256)

	t.Run("pre-cancelled", func(t *testing.T) {
		urls, _ := startWorkers(t, 1, distworker.Config{})
		ctr := obs.NewCounters()
		s := New(urls, Options{ChunkSize: 2, Counters: ctr})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := s.Relevance(ctx, sc, allCands(sc))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ctr.Get(obs.DistFallbacks) != 0 {
			t.Error("cancellation fell back to local compute")
		}
	})

	t.Run("mid-dispatch deadline", func(t *testing.T) {
		urls, _ := startWorkers(t, 2, distworker.Config{ServerConfig: rpc.ServerConfig{Latency: 300 * time.Millisecond}})
		s := New(urls, Options{ChunkSize: 1, MaxAttempts: 3})
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := s.Relevance(ctx, sc, allCands(sc))
		if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %v; deadline was 30ms", elapsed)
		}
		// goleak-style polling: every dispatch goroutine must wind down
		// once the call returns (HTTP attempts are context-bound).
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("leaked goroutines: %d before, %d after\n%s", before, g, buf[:runtime.Stack(buf, true)])
		}
	})
}

// TestScorerCountsUnits checks the effort accounting every bench and the
// acceptance CI shard key on: unit and HTTP counters move, and a clean run
// records no retries, hedges or fallbacks.
func TestScorerCountsUnits(t *testing.T) {
	sc := testContext(t, 256)
	ctr := obs.NewCounters()
	urls, _ := startWorkers(t, 2, distworker.Config{})
	s := New(urls, Options{ChunkSize: 2, Counters: ctr})
	if _, err := s.Relevance(context.Background(), sc, allCands(sc)); err != nil {
		t.Fatal(err)
	}
	wantUnits := int64(3) // ceil(5 candidates / chunk 2)
	if got := ctr.Get(obs.DistUnits); got != wantUnits {
		t.Errorf("dist_units = %d, want %d", got, wantUnits)
	}
	// 2 registrations (one per worker touched) are possible but at least
	// units HTTP requests must have gone out.
	if got := ctr.Get(obs.DistHTTPRequests); got < wantUnits {
		t.Errorf("dist_http_requests = %d, want ≥ %d", got, wantUnits)
	}
	for _, name := range []string{obs.DistRetries, obs.DistHedges, obs.DistFallbacks} {
		if got := ctr.Get(name); got != 0 {
			t.Errorf("%s = %d on a clean run, want 0", name, got)
		}
	}
}
