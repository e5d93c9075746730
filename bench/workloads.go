package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"nexus"
	"nexus/internal/colstore"
	"nexus/internal/distremote"
	"nexus/internal/distworker"
	"nexus/internal/harness"
	"nexus/internal/kg"
	"nexus/internal/kgremote"
	"nexus/internal/kgserve"
	"nexus/internal/obs"
	"nexus/internal/workload"
)

// worldSeed fixes the synthetic knowledge graph. The run's --seed drives the
// dataset rows and the request schedule, not the graph: which attributes
// exist and which of them confound sets how much work one query is, and a
// different graph per seed moved op latency by ±20 % on small_wide — more
// than any bound a regression gate could use.
const worldSeed = 11

// scale sets the input sizes, and how many independently generated inputs of
// that size one run cycles through. The workload shapes do not depend on it.
//
// How much work a query is depends on the sample of rows it runs over: which
// candidates survive the prunes, how many attributes MCIMR selects. Between
// two seeds that moved op latency by up to 17 % on a single Flights table. A
// run therefore measures several inputs, each generated from its own seed
// derived from --seed, and reports the mean over them, so that the spread
// between seeds falls with the square root of their number. Every input is
// measured at least minRounds times, which is what caps their number on the
// workloads whose op takes seconds.
type scale struct {
	flightsRows, flightsInputs int // flights_rows
	distRows, distInputs       int // flights_dist
	forbesRows, wideInputs     int // small_wide; 0 rows = paper size (1,647)
	soRows                     int // serve_mix
	serveSQL                   int // serve_mix: distinct SQL texts in the cycle
}

var scales = map[string]scale{
	"full": {flightsRows: 50000, flightsInputs: 2, distRows: 20000, distInputs: 2, wideInputs: 8, soRows: 5000, serveSQL: 12},
	"tiny": {flightsRows: 1000, flightsInputs: 1, distRows: 800, distInputs: 1, forbesRows: 200, wideInputs: 1, soRows: 800, serveSQL: 4},
}

// subSeed is the generation seed of a run's j-th input.
func subSeed(seed uint64, j int) uint64 { return seed*64 + uint64(j) }

// numbered names input j's copy of a query.
func numbered(q query, j int) query {
	q.Key = fmt.Sprintf("%s #%d", q.Key, j)
	return q
}

// workloadOrder lists the workloads in the order they are run and reported.
var workloadOrder = []string{"flights_rows", "small_wide", "serve_mix", "flights_dist"}

var workloads = map[string]func(config) (instance, error){
	"flights_rows": newFlightsRows,
	"small_wide":   newSmallWide,
	"serve_mix":    newServeMix,
	"flights_dist": newFlightsDist,
}

// table2 returns the Table-2 query of the user study with the given key.
func table2(key string) query {
	for _, spec := range harness.Queries() {
		if spec.Key() == key {
			gt := spec.GT
			return query{Key: key, SQL: spec.SQL, K: defaultK, GT: &gt}
		}
	}
	panic("bench: no Table-2 query " + key)
}

func flightsTarget(sess *nexus.Session, ds *workload.Dataset, src kg.Source) *target {
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	return &target{sess: sess, table: ds.Name, tbl: ds.Table, links: ds.LinkColumns, src: src, hops: 1}
}

// ---------------------------------------------------------------------------
// flights_rows: row-bound, the cold CLI path. Every op ingests the CSV into
// the columnar store, drains it into a table, builds a fresh session with no
// caches and explains Flights Q1.

type flightsRows struct {
	world *kg.World
	csvs  [][]byte // one CSV per input
	q     query
}

func newFlightsRows(cfg config) (instance, error) {
	f := &flightsRows{world: kg.NewWorld(kg.WorldConfig{Seed: worldSeed}), q: table2("Flights Q1")}
	for j := 0; j < cfg.scale.flightsInputs; j++ {
		var buf bytes.Buffer
		if err := workload.FlightsCSV(f.world, workload.Config{Rows: cfg.scale.flightsRows, Seed: subSeed(cfg.seed, j)}, &buf); err != nil {
			return nil, err
		}
		f.csvs = append(f.csvs, buf.Bytes())
	}
	return f, nil
}

func (f *flightsRows) round() int   { return len(f.csvs) }
func (f *flightsRows) close() error { return nil }

func (f *flightsRows) warmup(ctx context.Context) error { return f.run(ctx, 0, nil).err }

func (f *flightsRows) run(ctx context.Context, i int, tc *tracer) opResult {
	j := i % len(f.csvs)
	q := numbered(f.q, j)
	start := time.Now()
	var st *colstore.Table
	var ds workload.Dataset
	var err error
	ingest, err := tc.span("colstore.ingest", func() error {
		st, err = colstore.FromCSV(bytes.NewReader(f.csvs[j]), colstore.Options{})
		return err
	})
	if err != nil {
		return opResult{key: q.Key, err: err}
	}
	stats := st.Stats()
	if _, err = tc.span("colstore.drain", func() error { ds.Table, err = st.Drain(); return err }); err != nil {
		return opResult{key: q.Key, err: err}
	}
	ds.Name, ds.LinkColumns, ds.ExcludeCandidates = "Flights", workload.FlightsLinkColumns, workload.FlightsExcludeCandidates
	t := flightsTarget(nexus.NewSession(f.world.Graph, nil), &ds, f.world.Graph)

	if tc == nil {
		res := t.explain(ctx, q)
		res.latency = time.Since(start)
		return res
	}
	loaded := time.Since(start)
	tc.tr.sample("colstore.ingest_mrows_s", ratio(float64(stats.Rows)/1e6, ingest.Seconds()))
	tc.tr.sample("colstore.chunk_bytes_per_row", ratio(float64(stats.ChunkBytes), float64(stats.Rows)))
	res := t.staged(ctx, tc, q, obs.NewCounters())
	res.latency += loaded
	return res
}

// ---------------------------------------------------------------------------
// small_wide: candidate-bound. Covid-19 and Forbes at paper size with two
// extraction hops, the six Table-2 queries over them round-robin on one
// long-lived session per dataset, no extraction cache.

type smallWide struct {
	queries []query
	targets []*target // by query
}

func newSmallWide(cfg config) (instance, error) {
	world := kg.NewWorld(kg.WorldConfig{Seed: worldSeed})
	s := &smallWide{}
	for j := 0; j < cfg.scale.wideInputs; j++ {
		seed := subSeed(cfg.seed, j)
		for _, ds := range []*workload.Dataset{
			workload.Covid(world, workload.Config{Seed: seed}),
			workload.Forbes(world, workload.Config{Rows: cfg.scale.forbesRows, Seed: seed}),
		} {
			sess := nexus.NewSession(world.Graph, &nexus.Options{Hops: 2})
			sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
			sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
			t := &target{sess: sess, table: ds.Name, tbl: ds.Table, links: ds.LinkColumns, src: world.Graph, hops: 2}
			for _, id := range []string{"Q1", "Q2", "Q3"} {
				s.queries = append(s.queries, numbered(table2(ds.Name+" "+id), j))
				s.targets = append(s.targets, t)
			}
		}
	}
	return s, nil
}

func (s *smallWide) round() int   { return len(s.queries) }
func (s *smallWide) close() error { return nil }

func (s *smallWide) warmup(ctx context.Context) error {
	for i := 0; i < s.round(); i++ {
		if err := s.run(ctx, i, nil).err; err != nil {
			return err
		}
	}
	return nil
}

func (s *smallWide) run(ctx context.Context, i int, tc *tracer) opResult {
	q, t := s.queries[i%len(s.queries)], s.targets[i%len(s.queries)]
	if tc == nil {
		return t.explain(ctx, q)
	}
	return t.staged(ctx, tc, q, obs.NewCounters())
}

// ---------------------------------------------------------------------------
// flights_dist: the distributed deployment. A KG server and two scoring
// workers listen on loopback inside this process, healthy and with no
// injected latency. Every op builds a cold remote-KG client and a
// fleet scorer with default options, a session over them, and explains
// Flights Q1; the same input scored in process is the baseline.

const distWorkers = 2

type flightsDist struct {
	world   *kg.World
	inputs  []*workload.Dataset
	q       query
	servers []*httptest.Server // KG server first, then the workers

	localDigest []string // by input: the answer of the in-process run
	localOpMS   []float64
	localPrepMS []float64
}

func newFlightsDist(cfg config) (instance, error) {
	world := kg.NewWorld(kg.WorldConfig{Seed: worldSeed})
	f := &flightsDist{world: world, q: table2("Flights Q1")}
	for j := 0; j < cfg.scale.distInputs; j++ {
		f.inputs = append(f.inputs, workload.Flights(world, workload.Config{Rows: cfg.scale.distRows, Seed: subSeed(cfg.seed, j)}))
	}
	f.servers = append(f.servers, httptest.NewServer(kgserve.New(kgserve.Config{Source: world.Graph}).Handler()))
	for i := 0; i < distWorkers; i++ {
		f.servers = append(f.servers, httptest.NewServer(distworker.New(distworker.Config{}).Handler()))
	}
	return f, nil
}

func (f *flightsDist) round() int { return len(f.inputs) }

func (f *flightsDist) close() error {
	http.DefaultClient.CloseIdleConnections()
	for _, s := range f.servers {
		s.Close()
	}
	return nil
}

// local runs the op on input j with the in-memory graph and in-process
// scoring.
func (f *flightsDist) local(ctx context.Context, j int) opResult {
	start := time.Now()
	t := flightsTarget(nexus.NewSession(f.world.Graph, nil), f.inputs[j], f.world.Graph)
	if _, err := t.sess.PrepareCtx(ctx, f.q.SQL); err != nil {
		return opResult{key: f.q.Key, err: err}
	}
	f.localPrepMS = append(f.localPrepMS, float64(time.Since(start))/1e6)
	return t.explain(ctx, f.q)
}

// warmup scores every input locally — the reference answers the remote ops
// are held to, and the baseline timing — then runs one remote op.
func (f *flightsDist) warmup(ctx context.Context) error {
	for j := range f.inputs {
		res := f.local(ctx, j)
		if res.err != nil {
			return res.err
		}
		f.localDigest = append(f.localDigest, res.answer.digest())
		f.localOpMS = append(f.localOpMS, float64(res.latency)/1e6)
	}
	return f.run(ctx, 0, nil).err
}

func (f *flightsDist) run(ctx context.Context, i int, tc *tracer) opResult {
	j := i % len(f.inputs)
	q := numbered(f.q, j)
	start := time.Now()
	ctr := obs.NewCounters()
	src := kgremote.New(f.servers[0].URL, kgremote.Options{Counters: ctr})
	var fleet []string
	for _, s := range f.servers[1:] {
		fleet = append(fleet, s.URL)
	}
	opts := &nexus.Options{}
	opts.Core.Scorer = distremote.New(fleet, distremote.Options{Counters: ctr})
	t := flightsTarget(nexus.NewSessionFromSource(src, opts), f.inputs[j], src)
	t.scorer = opts.Core.Scorer
	built := time.Since(start)

	var res opResult
	if tc == nil {
		res = t.explain(ctx, q)
	} else {
		res = t.staged(ctx, tc, q, ctr)
	}
	res.latency += built
	switch {
	case res.err != nil:
	case ctr.Get(obs.DistFallbacks) > 0:
		res.err = fmt.Errorf("%d units fell back to local scoring on a healthy fleet", ctr.Get(obs.DistFallbacks))
	case res.answer.digest() != f.localDigest[j]:
		res.err = fmt.Errorf("answer digest %s differs from the local baseline %s", res.answer.digest(), f.localDigest[j])
	}
	return res
}

func (f *flightsDist) layers(tr *traced, m map[string]float64) {
	m["kgremote.prepare_ms"] = m["nexus.prepare_ms"]
	m["kgremote.http_requests"] = tr.perOp(obs.KGHTTPRequests)
	m["kgremote.retries"] = tr.perOp(obs.KGHTTPRetries)
	hits, misses := float64(tr.totals.Get(obs.KGCacheHits)), float64(tr.totals.Get(obs.KGCacheMisses))
	m["kgremote.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["kgremote.ms_per_request"] = ratio(m["kgremote.prepare_ms"], m["kgremote.http_requests"])
	m["kg.local_prepare_ms"] = median(f.localPrepMS)

	m["distremote.explain_ms"] = m["core.explain_ms"]
	m["distremote.subgroups_ms"] = m["subgroups.search_ms"]
	m["distremote.units"] = tr.perOp(obs.DistUnits)
	m["distremote.http_requests"] = tr.perOp(obs.DistHTTPRequests)
	m["distremote.retries"] = tr.perOp(obs.DistRetries)
	m["distremote.hedges"] = tr.perOp(obs.DistHedges)
	m["distremote.fallbacks"] = tr.perOp(obs.DistFallbacks)
	m["distremote.ms_per_unit"] = ratio(m["distremote.explain_ms"]+m["distremote.subgroups_ms"], m["distremote.units"])
	m["baseline.local_op_ms"] = median(f.localOpMS)
	m["distremote.slowdown_vs_local"] = ratio(m["op_p50_ms"], m["baseline.local_op_ms"])
}
