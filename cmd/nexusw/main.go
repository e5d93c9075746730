// Command nexusw is a stateless scoring worker for the distributed
// explanation fleet: a coordinator (nexusd -dist-workers, or any
// distremote.Scorer) registers encoded datasets and ships work units —
// MCIMR relevance batches, permutation-test blocks with explicit seeds,
// subgroup frontier batches — over the distwire protocol.
//
//	POST /dist/v1/dataset    register an encoded dataset under its fingerprint
//	POST /dist/v1/score      execute a batch of work units
//	GET  /dist/v1/stats      per-endpoint request counters, faults, cache size
//	GET  /metrics            Prometheus text exposition (prefix nexusw_)
//	GET  /debug/slow         slowest captured requests (with -slow-threshold)
//	GET  /healthz            liveness (never fault-injected)
//
// Usage:
//
//	nexusw -addr :7080
//	nexusw -addr :7080 -fail-rate 0.2 -latency 5ms    # resilience testing
//	nexusw -addr :7080 -debug-addr 127.0.0.1:7081     # pprof sidecar
//
// Workers hold no session state: a worker restarted mid-explanation answers
// 404 "unknown dataset" and the coordinator re-registers and retries. A
// whole fleet can die and the coordinator still completes (and completes
// byte-identically) by falling back to local scoring. -fail-rate injects
// deterministic (seeded) HTTP 500s and -latency adds a fixed delay per
// request, to exercise the coordinator's retry, hedging and fallback
// ladder. See docs/OPERATIONS.md for capacity guidance.
package main

import (
	"flag"
	"os"
	"time"

	"nexus/internal/distworker"
	"nexus/internal/rpc"
)

func main() { rpc.Main(run) }

func run(args []string) error {
	fs := flag.NewFlagSet("nexusw", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		daemon      = rpc.NewDaemon(fs, ":7080", 10*time.Second, true)
		par         = fs.Int("parallelism", 0, "scoring goroutines per unit (0 = GOMAXPROCS)")
		maxDatasets = fs.Int("max-datasets", 8, "registered datasets retained (LRU)")
		maxBatch    = fs.Int("max-batch", 1024, "reject score requests with more units with 400")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := daemon.ServerConfig()
	if err != nil {
		return err
	}
	return daemon.Run(distworker.New(distworker.Config{
		Parallelism:  *par,
		MaxDatasets:  *maxDatasets,
		MaxBatch:     *maxBatch,
		ServerConfig: cfg,
	}))
}
