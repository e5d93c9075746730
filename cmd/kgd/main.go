// Command kgd serves a knowledge graph over HTTP using the kgwire
// protocol, so nexus and nexusd can extract against a remote graph
// (-kg http://host:port) instead of an in-process one.
//
//	POST /kg/v2/resolve      batch entity resolution
//	POST /kg/v2/entities     batch entity records
//	POST /kg/v2/properties   batch property maps, as one columnar table
//	GET  /kg/v2/stats        per-endpoint request counters
//	GET  /metrics            Prometheus text exposition (prefix kgd_)
//	GET  /debug/slow         slowest captured requests (with -slow-threshold)
//	GET  /healthz            liveness (never fault-injected)
//
// Usage:
//
//	kgd -seed 11 -addr :7070
//	kgd -seed 11 -addr :7070 -fail-rate 0.2 -latency 5ms   # resilience testing
//	kgd -seed 11 -addr :7070 -debug-addr 127.0.0.1:7071    # pprof sidecar
//
// -fail-rate injects deterministic (seeded) HTTP 500s and -latency adds a
// fixed delay per request, to exercise the client's retry and batching
// under realistic network behavior. -debug-addr serves net/http/pprof
// (plus /metrics and /debug/slow) on a separate, typically loopback-only
// listener; with -slow-threshold set, SIGQUIT dumps the captured slow
// requests as JSONL to stderr without stopping the process. See
// docs/API.md for the wire protocol.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"nexus/internal/kg"
	"nexus/internal/kgserve"
	"nexus/internal/rpc"
)

func main() { rpc.Main(run) }

func run(args []string) error {
	fs := flag.NewFlagSet("kgd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		daemon   = rpc.NewDaemon(fs, ":7070", 10*time.Second, true)
		seed     = fs.Uint64("seed", 11, "world seed (must match the client's -seed for name-identical graphs)")
		maxBatch = fs.Int("max-batch", 65536, "reject larger batch requests with 400")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := daemon.ServerConfig()
	if err != nil {
		return err
	}

	log.Printf("generating knowledge graph (seed %d)...", *seed)
	world := kg.NewWorld(kg.WorldConfig{Seed: *seed})
	log.Printf("graph ready: %d entities, %d triples", world.Graph.NumEntities(), world.Graph.NumTriples())

	return daemon.Run(kgserve.New(kgserve.Config{Source: world.Graph, MaxBatch: *maxBatch, ServerConfig: cfg}))
}
