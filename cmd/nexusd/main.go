// Command nexusd serves confounding-bias explanations over HTTP. It loads
// one dataset at startup (a synthetic paper dataset or a CSV), builds a
// nexus.Session with a shared KG-extraction cache, and exposes:
//
//	POST /v1/explain — explain an aggregate query
//	GET  /healthz    — liveness
//	GET  /metrics    — Prometheus text exposition (see docs/API.md "Metrics")
//	GET  /debug/slow — slowest captured explanations (with -slow-threshold)
//
// Usage:
//
//	nexusd -dataset so -addr :8080
//	nexusd -csv data.csv -table mydata -links Country -addr :8080
//	nexusd -dataset so -addr :8080 -debug-addr 127.0.0.1:8081 -slow-threshold 2s
//
// Explanations flow through a report cache (-report-cache; X-Nexus-Cache
// response header). Each runs on the request that asked for it, at most
// -workers at once; up to -queue more wait in arrival order, and a request
// that finds the queue full is answered 429.
//
// -debug-addr serves net/http/pprof (plus /metrics and /debug/slow) on a
// separate, typically loopback-only listener. With -slow-threshold set,
// SIGQUIT dumps the captured slow requests as JSONL to stderr without
// stopping the process. The process drains gracefully on SIGTERM/SIGINT:
// the listener closes and running and queued explanations finish; past
// -drain-timeout their connections are closed, which cancels them. See
// docs/API.md for the wire protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"time"

	"nexus"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/rpc"
	"nexus/internal/server"
)

func main() { rpc.Main(run) }

func run(args []string) error {
	fs := flag.NewFlagSet("nexusd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		daemon       = rpc.NewDaemon(fs, ":8080", 30*time.Second, false)
		dataset      = fs.String("dataset", "", "synthetic dataset: so|covid|flights|forbes")
		rows         = fs.Int("rows", 0, "row count for the synthetic dataset (0 = paper size; flights defaults to 200000)")
		csvPath      = fs.String("csv", "", "serve this CSV instead of a synthetic dataset")
		tableName    = fs.String("table", "data", "table name for -csv")
		links        = fs.String("links", "", "comma-separated link columns for -csv")
		exclude      = fs.String("exclude", "", "comma-separated columns of -csv ruled out as candidate confounders (e.g. a sibling measurement of the outcome)")
		seed         = fs.Uint64("seed", 11, "world seed")
		kgURL        = fs.String("kg", "", "remote knowledge-graph server URL (cmd/kgd), e.g. http://localhost:7070; default in-process graph")
		hops         = fs.Int("hops", 1, "KG extraction depth")
		noIPW        = fs.Bool("no-ipw", false, "disable selection-bias detection and IPW")
		par          = fs.Int("parallelism", 0, "worker goroutines per explanation for MCIMR and the subgroup lattice search (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
		workers      = fs.Int("workers", 0, "concurrent explanations (0 = GOMAXPROCS, capped at 8)")
		queue        = fs.Int("queue", 0, "queued jobs before 429 (0 = 4 × workers)")
		cacheEntries = fs.Int("report-cache", 512, "report-cache entries: cached explanation responses served byte-identical on repeat queries (0 = off)")
		cacheTTL     = fs.Duration("report-cache-ttl", 15*time.Minute, "report-cache entry lifetime (0 = no expiry)")
		timeout      = fs.Duration("timeout", 60*time.Second, "default per-request timeout")
		maxTimeout   = fs.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeouts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slowCfg, err := daemon.ServerConfig()
	if err != nil {
		return err
	}

	// One registry per daemon: the serving histograms and gauges plus the
	// pipeline counter set, all rendered by GET /metrics; the counter set
	// is shared with the session and the extraction cache, so every
	// counter leaves the process by the one /metrics path.
	registry := obs.NewRegistry(nil)
	metrics := registry.Counters()
	su := nexus.Setup{
		Dataset: *dataset, Rows: *rows, CSV: *csvPath, Table: *tableName, Links: nexus.SplitList(*links),
		Exclude: nexus.SplitList(*exclude), Seed: *seed, KG: *kgURL,
		Registry: registry,
	}
	log.Printf("generating knowledge graph (seed %d)...", su.Seed)
	if su.KG != "" {
		log.Printf("using remote knowledge graph at %s", su.KG)
	}
	sessOpts := nexus.Options{
		Hops:       *hops,
		DisableIPW: *noIPW,
		// One cache per daemon: concurrent requests over the same dataset
		// context share a single KG extraction. Each request's trace counts
		// into metrics, and Metrics gives Open's ingest and remote-KG
		// counters (and any call without a trace) the same set.
		Metrics:      metrics,
		ExtractCache: nexus.NewExtractionCache(metrics),
	}
	sessOpts.Core.Parallelism = *par
	// A CSV's ingest counters land in /metrics alongside the
	// resident-chunk-bytes gauge registered above.
	sess, ds, err := nexus.Open(context.Background(), su, sessOpts)
	if errors.Is(err, nexus.ErrNoDataset) {
		fs.Usage()
	}
	if err != nil {
		return err
	}
	if su.CSV != "" {
		log.Printf("serving %s as %q: %d rows × %d columns (%d dict entries)",
			su.CSV, ds.Name, ds.Table.NumRows(), ds.Table.NumCols(), ds.Ingest.DictEntries)
	} else {
		log.Printf("serving %s: %d rows, link columns %v", ds.Name, ds.Table.NumRows(), ds.LinkColumns)
	}

	// Every report-cache key ends in the loaded dataset's fingerprint and
	// the KG source version (Session.ReportKey), and the data is loaded once
	// above: a restart is the cache's only invalidation.
	var reports *reportcache.Cache
	if *cacheEntries > 0 {
		ttl := *cacheTTL
		if ttl == 0 {
			ttl = -1 // flag 0 = never expire; Config 0 = default
		}
		reports = reportcache.New(reportcache.Config{
			MaxEntries: *cacheEntries,
			TTL:        ttl,
			Counters:   metrics,
		})
		log.Printf("report cache: %d entries, ttl %s", *cacheEntries, *cacheTTL)
	}

	srv := server.New(server.Config{
		Session:        sess,
		Workers:        *workers,
		QueueDepth:     *queue,
		ReportCache:    reports,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Metrics:        metrics,
		Registry:       registry,
		SlowThreshold:  slowCfg.SlowThreshold,
		SlowKeep:       slowCfg.SlowKeep,
		ErrorLog:       log.Default(),
	})

	return daemon.Run(srv)
}
