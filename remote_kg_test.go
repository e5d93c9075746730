package nexus_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/kgremote"
	"nexus/internal/kgserve"
	"nexus/internal/obs"
	"nexus/internal/rpc"
	"nexus/internal/workload"
)

const flightsQuery = "SELECT Origin_city, avg(Departure_delay) FROM Flights GROUP BY Origin_city"

// flightsSession builds a flights session over the given KG backend, with
// the dataset always drawn from the shared local world so both backends
// see identical input tables.
func flightsSession(w *kg.World, src kg.Source, opts *nexus.Options) *nexus.Session {
	ds := workload.Flights(w, workload.Config{Rows: 8000, Seed: 12})
	sess := nexus.NewSessionFromSource(src, opts)
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	return sess
}

// stableSummary strips the wall-clock line from a report summary, leaving
// only the deterministic content (query, scores, attributes, candidates).
func stableSummary(r *nexus.Report) string {
	lines := strings.Split(r.Summary(), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "elapsed:") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

// TestRemoteKGFlightsIdentical is the acceptance test for the remote
// backend: against a kgd-equivalent server injecting 20% failures and 5ms
// latency per request, the flights explanation and its subgroups must be
// byte-identical to the in-memory backend. Faults only cost retries; they
// must never alter results.
func TestRemoteKGFlightsIdentical(t *testing.T) {
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

	srv := kgserve.New(kgserve.Config{
		Source:       w.Graph,
		ServerConfig: rpc.ServerConfig{FailRate: 0.2, Latency: 5 * time.Millisecond, Seed: 11},
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := kgremote.New(hs.URL, kgremote.Options{
		MaxRetries: 50,
		RetryBase:  time.Millisecond,
		RetryMax:   10 * time.Millisecond,
	})

	remote := flightsSession(w, client, nil)
	gotRep, err := remote.ExplainCtx(context.Background(), flightsQuery)
	if err != nil {
		t.Fatal(err)
	}
	gotGroups, _, err := gotRep.SubgroupsCtx(context.Background(), 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := stableSummary(gotRep), stableSummary(wantRep); got != want {
		t.Errorf("explanation differs across backends:\n--- remote ---\n%s\n--- in-memory ---\n%s", got, want)
	}
	if len(gotGroups) != len(wantGroups) {
		t.Fatalf("subgroups: %d remote vs %d in-memory", len(gotGroups), len(wantGroups))
	}
	for i := range wantGroups {
		if gotGroups[i].String() != wantGroups[i].String() || gotGroups[i].Size != wantGroups[i].Size {
			t.Errorf("subgroup %d differs: %s (size %d) vs %s (size %d)", i,
				gotGroups[i].String(), gotGroups[i].Size, wantGroups[i].String(), wantGroups[i].Size)
		}
	}
	if srv.Stats().Injected == 0 {
		t.Error("fault injection never fired; the test is not exercising retries")
	}
}

// TestRemoteKGRequestBudget pins the batching contract: a remote flights
// extraction issues at most hops × linkColumns × 4 HTTP requests — per-hop
// batches, never per-entity pointer chasing. The naive client (one item per
// request, no cache) is that pointer-chasing shape, kept as the yardstick:
// it would issue one request per item looked up, kg_cache_hits +
// kg_cache_misses of the batched run, and that must be at least 10× the
// batched client's requests.
func TestRemoteKGRequestBudget(t *testing.T) {
	w := integrationWorld()
	linkCols := len(workload.Flights(w, workload.Config{Rows: 16, Seed: 12}).LinkColumns)
	for _, hops := range []int{1, 2} {
		srv := kgserve.New(kgserve.Config{Source: w.Graph})
		hs := httptest.NewServer(srv.Handler())
		counters := obs.NewCounters()
		sess := flightsSession(w, kgremote.New(hs.URL, kgremote.Options{Counters: counters}), &nexus.Options{Hops: hops})
		_, err := sess.PrepareCtx(context.Background(), flightsQuery)
		hs.Close()
		if err != nil {
			t.Fatal(err)
		}
		batched := counters.Get(obs.KGHTTPRequests)
		budget := int64(hops * linkCols * 4)
		if batched == 0 || batched > budget {
			t.Errorf("hops=%d: %d HTTP requests, budget %d (link columns: %d)", hops, batched, budget, linkCols)
		}
		if naive := counters.Get(obs.KGCacheHits) + counters.Get(obs.KGCacheMisses); naive < 10*batched {
			t.Errorf("hops=%d: naive backend would use %d requests vs %d batched — batching regressed", hops, naive, batched)
		}
	}
}
