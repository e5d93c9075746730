package nexus_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"nexus"
	"nexus/internal/distremote"
	"nexus/internal/distworker"
	"nexus/internal/obs"
	"nexus/internal/rpc"
	"nexus/internal/subgroups"
)

// startWorkerFleet spins up n in-process scoring workers and returns their
// URLs and servers.
func startWorkerFleet(tb testing.TB, n int, cfg distworker.Config) ([]string, []*distworker.Server) {
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

// TestDistributedFlightsIdentical is the acceptance test for the scoring
// fleet: the flights explanation must be byte-identical whether MCIMR is
// scored in process, on one worker, or sharded across four. The subgroups
// are compared too, but both sides run the same in-process search, which
// TestDistributedSubgroupsStayInProcess pins.
func TestDistributedFlightsIdentical(t *testing.T) {
	w := integrationWorld()

	local := flightsSession(w, w.Graph, nil)
	wantRep, err := local.ExplainCtx(context.Background(), flightsQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantGroups, _, err := wantRep.SubgroupsCtx(context.Background(), 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := stableSummary(wantRep)

	var units1 int64 // dist_units on the 1-worker fleet
	for _, workers := range []int{1, 4} {
		urls, srvs := startWorkerFleet(t, workers, distworker.Config{})
		ctr := obs.NewCounters()
		opts := &nexus.Options{Metrics: ctr}
		opts.Core.Scorer = distremote.New(urls, distremote.Options{
			ChunkSize: 4, Counters: ctr,
		})
		sess := flightsSession(w, w.Graph, opts)
		gotRep, err := sess.ExplainCtx(context.Background(), flightsQuery)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := stableSummary(gotRep); got != want {
			t.Errorf("%d workers: explanation differs:\n--- distributed ---\n%s\n--- local ---\n%s", workers, got, want)
		}
		gotGroups, _, err := gotRep.SubgroupsCtx(context.Background(), 3, 0.05)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if len(gotGroups) != len(wantGroups) {
			t.Fatalf("%d workers: %d subgroups vs %d local", workers, len(gotGroups), len(wantGroups))
		}
		for i := range wantGroups {
			if gotGroups[i].String() != wantGroups[i].String() || gotGroups[i].Size != wantGroups[i].Size ||
				gotGroups[i].Score != wantGroups[i].Score {
				t.Errorf("%d workers: subgroup %d differs: %s (size %d, score %v) vs %s (size %d, score %v)",
					workers, i,
					gotGroups[i].String(), gotGroups[i].Size, gotGroups[i].Score,
					wantGroups[i].String(), wantGroups[i].Size, wantGroups[i].Score)
			}
		}
		switch dispatched := ctr.Get(obs.DistUnits); {
		case dispatched == 0:
			t.Errorf("%d workers: dist_units = 0; scoring never reached the fleet", workers)
		case workers == 1:
			units1 = dispatched
		case dispatched != units1:
			t.Errorf("dist_units varies with fleet size: %d at 1 worker, %d at %d — partitioning is not deterministic",
				units1, dispatched, workers)
		}
		var units int64
		for _, s := range srvs {
			units += s.Stats().Units
		}
		if units == 0 {
			t.Errorf("%d workers: no worker executed any unit", workers)
		}
		if workers == 4 {
			// Sharding must actually spread: no single worker may have
			// executed everything.
			for i, s := range srvs {
				if s.Stats().Units == units {
					t.Errorf("worker %d executed all %d units; fleet never sharded", i, units)
				}
			}
		}
		if got := ctr.Get(obs.DistFallbacks); got != 0 {
			t.Errorf("%d workers: dist_fallbacks = %d on a healthy fleet", workers, got)
		}
	}
}

// TestDistributedFlightsIdenticalUnderFaults repeats the acceptance test
// against a 2-worker fleet injecting 20% HTTP 500s and 5ms latency per
// request: faults cost retries — visible on the counters — but never change
// a byte of the report. Its subgroups, like the fault-free test's, come
// from the in-process search on both sides
// (TestDistributedSubgroupsStayInProcess).
func TestDistributedFlightsIdenticalUnderFaults(t *testing.T) {
	w := integrationWorld()

	local := flightsSession(w, w.Graph, nil)
	wantRep, err := local.ExplainCtx(context.Background(), flightsQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantGroups, _, err := wantRep.SubgroupsCtx(context.Background(), 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	urls, srvs := startWorkerFleet(t, 2, distworker.Config{
		ServerConfig: rpc.ServerConfig{FailRate: 0.2, Latency: 5 * time.Millisecond, Seed: 11},
	})
	ctr := obs.NewCounters()
	opts := &nexus.Options{Metrics: ctr}
	opts.Core.Scorer = distremote.New(urls, distremote.Options{
		ChunkSize:   8,
		MaxAttempts: 50,
		RetryBase:   time.Millisecond,
		RetryMax:    10 * time.Millisecond,
		Counters:    ctr,
	})
	sess := flightsSession(w, w.Graph, opts)
	gotRep, err := sess.ExplainCtx(context.Background(), flightsQuery)
	if err != nil {
		t.Fatal(err)
	}
	gotGroups, _, err := gotRep.SubgroupsCtx(context.Background(), 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := stableSummary(gotRep), stableSummary(wantRep); got != want {
		t.Errorf("explanation differs under faults:\n--- faulted fleet ---\n%s\n--- local ---\n%s", got, want)
	}
	if len(gotGroups) != len(wantGroups) {
		t.Fatalf("subgroups: %d faulted vs %d local", len(gotGroups), len(wantGroups))
	}
	for i := range wantGroups {
		if gotGroups[i].String() != wantGroups[i].String() || gotGroups[i].Size != wantGroups[i].Size {
			t.Errorf("subgroup %d differs: %s (size %d) vs %s (size %d)", i,
				gotGroups[i].String(), gotGroups[i].Size, wantGroups[i].String(), wantGroups[i].Size)
		}
	}
	injected := srvs[0].Stats().Injected + srvs[1].Stats().Injected
	if injected == 0 {
		t.Error("fault injection never fired; the test is not exercising the retry ladder")
	}
	if ctr.Get(obs.DistRetries) == 0 {
		t.Errorf("faults injected (%d) but dist_retries = 0", injected)
	}
}

// TestDistributedSubgroupsStayInProcess pins that a configured fleet serves
// the explanation only: Alg. 2 scores in process, so the subgroups of a
// fleet-explained report are the in-process ones, score bits included, no
// unit reaches the fleet during the search, and the search scores as many
// slot nodes as the in-process run does.
func TestDistributedSubgroupsStayInProcess(t *testing.T) {
	w := integrationWorld()
	search := func(opts *nexus.Options) ([]subgroups.Group, int64, int64) {
		t.Helper()
		rep, err := flightsSession(w, w.Graph, opts).ExplainCtx(context.Background(), flightsQuery)
		if err != nil {
			t.Fatal(err)
		}
		units, slots := opts.Metrics.Get(obs.DistUnits), opts.Metrics.Get(obs.SubgroupSlotScored)
		groups, _, err := rep.SubgroupsCtx(context.Background(), 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return groups, opts.Metrics.Get(obs.DistUnits) - units, opts.Metrics.Get(obs.SubgroupSlotScored) - slots
	}
	wantGroups, _, wantSlots := search(&nexus.Options{Metrics: obs.NewCounters()})
	if wantSlots == 0 {
		t.Fatal("the in-process search scored no slot node; the test cannot tell the paths apart")
	}

	urls, _ := startWorkerFleet(t, 2, distworker.Config{})
	ctr := obs.NewCounters()
	opts := &nexus.Options{Metrics: ctr}
	opts.Core.Scorer = distremote.New(urls, distremote.Options{Counters: ctr})
	gotGroups, units, slots := search(opts)
	if ctr.Get(obs.DistUnits) == 0 {
		t.Fatal("dist_units = 0; the explanation never reached the fleet")
	}
	if units != 0 {
		t.Errorf("the subgroup search sent %d units to the fleet", units)
	}
	if slots != wantSlots {
		t.Errorf("subgroup_slot_scored = %d with a fleet, %d in process", slots, wantSlots)
	}
	if len(gotGroups) != len(wantGroups) {
		t.Fatalf("%d subgroups with a fleet vs %d in process", len(gotGroups), len(wantGroups))
	}
	for i, g := range gotGroups {
		want := wantGroups[i]
		if g.String() != want.String() || g.Size != want.Size || math.Float64bits(g.Score) != math.Float64bits(want.Score) {
			t.Errorf("subgroup %d: %s (size %d, score %v) with a fleet vs %s (size %d, score %v) in process",
				i, g, g.Size, g.Score, want, want.Size, want.Score)
		}
	}
}
