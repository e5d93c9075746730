// Command nexusload is the serving-tier load generator: it drives
// thousands of concurrent mixed-priority explanation requests at a target
// rate against a nexusd endpoint and reports per-tier latency percentiles,
// throughput, shed rate and report-cache hit ratio.
//
// Two modes:
//
//	nexusload -addr http://localhost:8080 -dataset so        # remote nexusd
//	nexusload -dataset forbes -requests 2000 -rate 50        # in-process
//
// Without -addr it boots a complete nexusd serving stack in-process (same
// wiring as cmd/nexusd: session, extraction cache, report cache, tiered
// scheduler) on a loopback listener and drives that — the one-command way
// to capacity-test a dataset before deploying it. The query mix is
// generated deterministically from the dataset's schema (every categorical
// column × every outcome, with varying subgroup options), or supplied
// explicitly with -queries (one SQL statement per line).
//
// With -json the run's metrics are written as nexusload's JSON report
// (loadgen.BenchMetrics documents the fields).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/loadgen"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/server"
	"nexus/internal/table"
	"nexus/internal/workload"
)

func main() {
	err := run(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexusload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nexusload", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr    = fs.String("addr", "", "target nexusd base URL (e.g. http://localhost:8080); empty boots an in-process server")
		dataset = fs.String("dataset", "forbes", "synthetic dataset: so|covid|flights|forbes (schema for query generation; serving data in in-process mode)")
		rows    = fs.Int("rows", 400, "row count for the in-process dataset (0 = paper size)")
		seed    = fs.Uint64("seed", 11, "world seed (must match the remote server's -seed)")

		requests  = fs.Int("requests", 1000, "total requests to issue")
		conc      = fs.Int("concurrency", 16, "concurrent load workers")
		rate      = fs.Float64("rate", 0, "target requests/second (0 = closed loop)")
		batchFrac = fs.Float64("batch-fraction", 0.3, "fraction of requests sent at batch priority")
		nqueries  = fs.Int("distinct", 6, "distinct query shapes in the mix")
		loadSeed  = fs.Uint64("load-seed", 1, "schedule seed (query and tier per request)")
		timeout   = fs.Duration("request-timeout", 2*time.Minute, "client-side per-request timeout")
		queries   = fs.String("queries", "", "file with one SQL statement per line (overrides generated mix)")

		workers      = fs.Int("workers", 0, "in-process server: concurrent explanations (0 = GOMAXPROCS, capped at 8)")
		queue        = fs.Int("queue", 64, "in-process server: interactive queue depth")
		batchQueue   = fs.Int("batch-queue", 256, "in-process server: batch queue depth")
		shedBatchAt  = fs.Int("shed-batch-at", 0, "in-process server: interactive backlog that sheds batch work (0 = queue/2)")
		cacheEntries = fs.Int("report-cache", 512, "in-process server: report-cache entries (0 = off)")

		jsonOut = fs.String("json", "", "write nexusload's JSON report to this file (\"-\" = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	log.Printf("generating knowledge graph (seed %d)...", *seed)
	world := kg.NewWorld(kg.WorldConfig{Seed: *seed})
	ds, err := workload.ByName(world, *dataset, *rows, *seed)
	if err != nil {
		return err
	}

	var mix []loadgen.Query
	if *queries != "" {
		mix, err = readQueries(*queries)
	} else {
		mix, err = generateQueries(ds, *nqueries)
	}
	if err != nil {
		return err
	}
	log.Printf("query mix: %d shapes over %s", len(mix), ds.Name)

	base := *addr
	if base == "" {
		srv, shutdown, err := bootServer(ctx, world, ds, inProcConfig{
			workers: *workers, queue: *queue, batchQueue: *batchQueue,
			shedBatchAt: *shedBatchAt, cacheEntries: *cacheEntries,
		})
		if err != nil {
			return err
		}
		defer shutdown()
		base = srv
	}

	log.Printf("driving %d requests (%d workers, batch fraction %.2f, rate %s) at %s",
		*requests, *conc, *batchFrac, rateLabel(*rate), base)
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:       base,
		Requests:      *requests,
		Concurrency:   *conc,
		Rate:          *rate,
		BatchFraction: *batchFrac,
		Queries:       mix,
		Seed:          *loadSeed,
		Timeout:       *timeout,
	})
	if err != nil {
		return err
	}

	report(os.Stdout, res)
	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(loadgen.BenchMetrics(res)); err != nil {
			return err
		}
	}
	if errs := res.Interactive.Errors + res.Batch.Errors; errs > 0 {
		return fmt.Errorf("%d requests failed", errs)
	}
	return nil
}

func rateLabel(rate float64) string {
	if rate <= 0 {
		return "closed-loop"
	}
	return fmt.Sprintf("%.1f req/s", rate)
}

// readQueries loads one SQL statement per non-empty, non-comment line.
func readQueries(path string) ([]loadgen.Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var mix []loadgen.Query
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		mix = append(mix, loadgen.Query{SQL: line})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return mix, nil
}

// generateQueries derives a deterministic mix from the dataset schema:
// every categorical (string, small-cardinality, non-link) column crossed
// with every outcome column, then widened to n shapes by varying the
// subgroup options — distinct report-cache keys from the same SQL.
func generateQueries(ds *workload.Dataset, n int) ([]loadgen.Query, error) {
	links := map[string]bool{}
	for _, lc := range ds.LinkColumns {
		links[lc] = true
	}
	var sqls []string
	for _, c := range ds.Table.Columns() {
		if c.Typ != table.String || links[c.Name] || c.DistinctCount() < 2 || c.DistinctCount() > 64 {
			continue
		}
		for _, o := range ds.Outcomes {
			sqls = append(sqls, fmt.Sprintf("SELECT %s, avg(%s) FROM %s GROUP BY %s", c.Name, o, ds.Name, c.Name))
		}
	}
	if len(sqls) == 0 {
		return nil, fmt.Errorf("no categorical column × outcome pairs in %s; use -queries", ds.Name)
	}
	if n < 1 {
		n = 1
	}
	subgroupSteps := []int{0, 3, 5, 8}
	mix := make([]loadgen.Query, 0, n)
	for i := 0; i < n; i++ {
		mix = append(mix, loadgen.Query{
			SQL:       sqls[i%len(sqls)],
			Subgroups: subgroupSteps[(i/len(sqls))%len(subgroupSteps)],
		})
	}
	return mix, nil
}

type inProcConfig struct {
	workers, queue, batchQueue, shedBatchAt, cacheEntries int
}

// bootServer starts a full nexusd serving stack on a loopback listener and
// returns its base URL plus a shutdown func.
func bootServer(ctx context.Context, world *kg.World, ds *workload.Dataset, cfg inProcConfig) (string, func(), error) {
	registry := obs.NewRegistry(nil)
	metrics := registry.Counters()
	sessOpts := nexus.Options{
		Hops:         1,
		Metrics:      metrics,
		ExtractCache: nexus.NewExtractionCache(metrics),
	}
	sess := nexus.NewSession(world.Graph, &sessOpts)
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)

	var reports *reportcache.Cache
	if cfg.cacheEntries > 0 {
		reports = reportcache.New(reportcache.Config{
			MaxEntries: cfg.cacheEntries,
			Version:    sess.DatasetFingerprint() + "/" + sess.KGVersion(),
			Counters:   metrics,
		})
	}
	srv := server.New(server.Config{
		Session:         sess,
		Workers:         cfg.workers,
		QueueDepth:      cfg.queue,
		BatchQueueDepth: cfg.batchQueue,
		ShedBatchAt:     cfg.shedBatchAt,
		ReportCache:     reports,
		Metrics:         metrics,
		Registry:        registry,
		ErrorLog:        log.Default(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln, 10*time.Second) }()
	base := "http://" + ln.Addr().String()
	log.Printf("in-process nexusd on %s (%s: %d rows)", base, ds.Name, ds.Table.NumRows())
	shutdown := func() {
		cancel()
		if err := <-done; err != nil && err != http.ErrServerClosed {
			log.Printf("in-process server: %v", err)
		}
	}
	return base, shutdown, nil
}

// report prints the human-readable run summary.
func report(w *os.File, res *loadgen.Result) {
	fmt.Fprintf(w, "wall %.2fs  throughput %.1f ok/s  shed rate %.3f  cache hit ratio %.3f\n",
		res.Wall.Seconds(), res.Throughput(), res.ShedRate(), res.CacheHitRatio())
	line := func(name string, t loadgen.TierStats) {
		fmt.Fprintf(w, "%-12s sent %5d  ok %5d  shed %4d  rejected %4d  errors %3d  p50 %8s  p99 %8s  max %8s  cache h/m/s %d/%d/%d\n",
			name, t.Sent, t.OK, t.Shed, t.Rejected, t.Errors,
			t.P50.Round(time.Microsecond), t.P99.Round(time.Microsecond), t.Max.Round(time.Microsecond),
			t.CacheHits, t.CacheMisses, t.CacheShared)
	}
	line("interactive", res.Interactive)
	line("batch", res.Batch)
}
