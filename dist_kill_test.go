package nexus_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"nexus"
	"nexus/internal/distremote"
	"nexus/internal/distworker"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

// TestDistributedKillWorkerMidExplanation is the fleet-death acceptance
// test: two workers serve an explanation, and one dies while score traffic
// is in flight. The death is what a SIGKILL does to a worker process: its
// listener closes, so new connections are refused, and its open connections
// drop. With failover disabled (MaxAttempts 1), every unit aimed at the
// dead worker must fall back to local scoring — so the report is still
// byte-identical to the in-process one, and dist_fallbacks records the
// rescue.
func TestDistributedKillWorkerMidExplanation(t *testing.T) {
	w := integrationWorld()
	local := flightsSession(w, w.Graph, nil)
	wantRep, err := local.Explain(flightsQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := stableSummary(wantRep)

	// A little per-request latency keeps the explanation in flight long
	// enough for the kill to land mid-stream.
	cfg := distworker.Config{ServerConfig: rpc.ServerConfig{Latency: 2 * time.Millisecond}}
	survivor := httptest.NewServer(distworker.New(cfg).Handler())
	defer survivor.Close()
	victimSrv := distworker.New(cfg)
	victim := httptest.NewServer(victimSrv.Handler())
	defer victim.Close()

	ctr := obs.NewCounters()
	opts := &nexus.Options{Metrics: ctr}
	opts.Core.Scorer = distremote.New([]string{survivor.URL, victim.URL}, distremote.Options{
		ChunkSize:   4,
		MaxAttempts: 1, // no failover: a dead worker's units must fall back locally
		Timeout:     5 * time.Second,
		Counters:    ctr,
	})
	sess := flightsSession(w, w.Graph, opts)

	// Kill the victim once it has actually served score traffic, so the
	// death lands mid-explanation rather than before it.
	killed := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if victimSrv.Stats().Units > 0 {
				victim.Listener.Close()
				victim.CloseClientConnections()
				killed <- true
				return
			}
			time.Sleep(time.Millisecond)
		}
		killed <- false
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	gotRep, err := sess.ExplainCtx(ctx, flightsQuery)
	if err != nil {
		t.Fatalf("explanation with a killed worker: %v", err)
	}
	if !<-killed {
		t.Fatal("victim worker was never killed; the test did not exercise worker death")
	}

	if got := stableSummary(gotRep); got != want {
		t.Errorf("explanation differs after worker death:\n--- survivor+fallback ---\n%s\n--- local ---\n%s", got, want)
	}
	if got := ctr.Get(obs.DistFallbacks); got == 0 {
		t.Error("worker killed mid-explanation but dist_fallbacks = 0")
	}
}
