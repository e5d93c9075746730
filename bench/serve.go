package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/server"
	"nexus/internal/sqlx"
	"nexus/internal/stats"
	"nexus/internal/workload"
)

// serve_mix: the same pipeline used as a service. An in-process nexusd on a
// loopback listener, with a report cache and an extraction cache, answers a
// seeded cycle of requests from one closed-loop interactive client. One, not
// two: a request already spreads over every core (pipeline parallelism stays
// at GOMAXPROCS), so two clients leave no core idle at any time, and on a
// shared two-core host such a workload measures what the neighbours are doing
// (see README, "Noise floor").
//
// The cycle holds every distinct request (SQL text × subgroups k) once, as
// a fresh key, plus repeats of recently sent keys that make up repeatShare
// of the cycle. The report cache is smaller than the cycle's key set, so by
// the time a cycle comes round again its fresh keys have been evicted: every
// fresh request is a miss that runs the pipeline, and every repeat is a hit,
// in every cycle and however many cycles a run fits in.

// repeatShare of a cycle's requests repeat an earlier key.
const repeatShare = 0.3

// repeatWindow is how many fresh keys back a repeat may reach in a cycle of
// the given number of fresh keys, and cacheEntries the report cache's
// capacity for it: room for every key a repeat can reach and a few more,
// and for well under half a cycle, so a key is gone before it comes round.
func repeatWindow(fresh int) int { return max(1, fresh/10) }
func cacheEntries(fresh int) int { return max(repeatWindow(fresh)+2, fresh*2/5) }

// serveKs are the subgroup counts requested with each SQL text.
var serveKs = []int{0, 3, 5}

// request is one slot of the cycle.
type request struct {
	query
	repeat bool // repeats an earlier key of the cycle: a report-cache hit
}

// serveQueries returns the n distinct SQL texts of the cycle: the three SO
// Table-2 queries, then the first queries the §5.1 random-query protocol draws
// over the dataset. The draw has a seed of its own, not the run's: the texts
// differ in cost by a factor of twenty, so every run serves the same texts,
// and --seed changes the rows they run over and the order they arrive in.
func serveQueries(ds *workload.Dataset, n int) []query {
	out := []query{table2("SO Q1"), table2("SO Q2"), table2("SO Q3")}
	seen := map[string]bool{}
	for _, q := range out {
		seen[q.SQL] = true
	}
	for _, rq := range workload.RandomQueries(ds, 1000, worldSeed) {
		if len(out) >= n {
			break
		}
		if !seen[rq.SQL] {
			seen[rq.SQL] = true
			out = append(out, query{SQL: rq.SQL})
		}
	}
	return out
}

// serveCycle builds the request cycle: a seeded shuffle of every SQL × k as
// fresh keys, with repeats of one of the last repeatWindow fresh keys
// inserted at seeded positions. The first slot is always fresh.
func serveCycle(sqls []query, seed uint64) []request {
	rng := stats.NewRNG(seed)
	var fresh []request
	for _, q := range sqls {
		for _, k := range serveKs {
			r := request{query: q}
			r.K = k
			r.Key = fmt.Sprintf("%s | k=%d", q.SQL, k)
			fresh = append(fresh, r)
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	repeats := int(float64(len(fresh))*repeatShare/(1-repeatShare) + 0.5)
	// after[i] is how many repeats follow fresh key i.
	after := make([]int, len(fresh))
	for r := 0; r < repeats; r++ {
		after[rng.Intn(len(fresh))]++
	}
	var cycle []request
	for i, f := range fresh {
		cycle = append(cycle, f)
		for r := 0; r < after[i]; r++ {
			back := rng.Intn(min(repeatWindow(len(fresh)), i+1))
			rep := fresh[i-back]
			rep.repeat = true
			cycle = append(cycle, rep)
		}
	}
	return cycle
}

type serveMix struct {
	base  string
	hc    *http.Client
	stop  context.CancelFunc
	done  chan error
	ds    *workload.Dataset
	sqls  []query
	cycle []request

	outcomes map[string]int // X-Nexus-Cache value → responses, measured window only
	fresh    int            // fresh slots sent in the measured window
	hitMS    []float64
	missMS   []float64
	overMS   []float64 // per miss: client latency − the server's own run time
	scrape0  map[string]float64
}

func newServeMix(cfg config) (instance, error) {
	world := kg.NewWorld(kg.WorldConfig{Seed: worldSeed})
	ds := workload.StackOverflow(world, workload.Config{Rows: cfg.scale.soRows, Seed: cfg.seed})
	metrics := obs.NewCounters()
	sess := nexus.NewSession(world.Graph, &nexus.Options{
		Metrics:      metrics,
		ExtractCache: nexus.NewExtractionCache(metrics),
	})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)

	s := &serveMix{ds: ds, outcomes: map[string]int{}}
	s.sqls = serveQueries(ds, cfg.scale.serveSQL)
	s.cycle = serveCycle(s.sqls, cfg.seed)
	srv := server.New(server.Config{
		Session: sess,
		Workers: runtime.GOMAXPROCS(0),
		Metrics: metrics,
		ReportCache: reportcache.New(reportcache.Config{
			MaxEntries: cacheEntries(len(s.sqls) * len(serveKs)),
			Version:    sess.DatasetFingerprint() + "/" + sess.KGVersion(),
			Counters:   metrics,
		}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hc = &http.Client{Transport: &http.Transport{}}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.done = cancel, make(chan error, 1)
	go func() { s.done <- srv.Serve(ctx, ln, 10*time.Second) }()
	return s, nil
}

func (s *serveMix) round() int { return len(s.cycle) }

// close drains the server and waits until it has gone.
func (s *serveMix) close() error {
	s.stop()
	err := <-s.done
	s.hc.CloseIdleConnections()
	return err
}

// warmup sends every SQL text once with a subgroup count no cycle slot uses:
// the extraction cache fills, as it has in any daemon that has served its
// dataset for a while, and no cycle key enters the report cache.
func (s *serveMix) warmup(ctx context.Context) error {
	for _, q := range s.sqls {
		q.K = 1
		if r := s.post(ctx, q); r.err != nil {
			return r.err
		}
	}
	var err error
	s.scrape0, err = s.scrape(ctx)
	return err
}

// reply is the response to one explain request: the op's result, the report
// cache's verdict on it (the X-Nexus-Cache header) and the run time the
// server itself reported.
type reply struct {
	opResult
	cache    string
	serverMS float64
}

// post sends one explain request.
func (s *serveMix) post(ctx context.Context, q query) reply {
	fail := func(err error) reply { return reply{opResult: opResult{key: q.Key, err: err}} }
	body, err := json.Marshal(server.ExplainRequest{SQL: q.SQL, Subgroups: q.K})
	if err != nil {
		return fail(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return fail(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(start)
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		// Refusals (429 shed or queue full, 503 draining) and errors alike.
		return fail(fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw))))
	}
	var er server.ExplainResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		return fail(err)
	}
	var a answer
	for _, at := range er.Attributes {
		a.Attrs = append(a.Attrs, answerAttr{at.Name, at.Origin, at.Responsibility})
	}
	for _, g := range er.Subgroups {
		a.Groups = append(a.Groups, answerGroup{g.Conditions, g.Size})
	}
	return reply{q.result(a, latency), resp.Header.Get(server.CacheHeader), er.ElapsedMS}
}

func (s *serveMix) run(ctx context.Context, i int, tc *tracer) opResult {
	r := s.cycle[i%len(s.cycle)]
	var res reply
	tc.span("server.request", func() error { res = s.post(ctx, r.query); return res.err })
	if tc != nil && !r.repeat && res.err == nil {
		// What a miss spends in the SQL layer, timed on the same catalog
		// beside the request, not inside it.
		var pq *sqlx.Query
		tc.span("sqlx.parse", func() (err error) { pq, err = sqlx.Parse(r.SQL); return err })
		tc.span("sqlx.execute", func() error {
			_, err := sqlx.Execute(pq, sqlx.Catalog{s.ds.Name: s.ds.Table})
			return err
		})
	}
	if res.err != nil {
		return res.opResult
	}
	ms := float64(res.latency) / 1e6
	s.outcomes[res.cache]++
	if !r.repeat {
		s.fresh++
	}
	switch res.cache {
	case "hit":
		s.hitMS = append(s.hitMS, ms)
	case "miss":
		s.missMS = append(s.missMS, ms)
		s.overMS = append(s.overMS, ms-res.serverMS)
	}
	return res.opResult
}

// audit checks what the schedule determines: every fresh key missed the
// report cache exactly once per cycle, and every repeat was served from it
// (as a hit, or shared with the miss still in flight).
func (s *serveMix) audit(attempted int) error {
	served := s.outcomes["hit"] + s.outcomes["shared"]
	if s.outcomes["miss"] != s.fresh || served != attempted-s.fresh {
		return fmt.Errorf("report cache: %d misses and %d hits+shared over %d fresh and %d repeat requests",
			s.outcomes["miss"], served, s.fresh, attempted-s.fresh)
	}
	return nil
}

// scrape reads GET /metrics into sample name (with labels) → value.
func (s *serveMix) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, sc.Err()
}

// layers reads the server's own metrics: the growth of GET /metrics over the
// measured window, and the client's timings split by cache verdict.
func (s *serveMix) layers(tr *traced, m map[string]float64) {
	now, err := s.scrape(context.Background())
	if err != nil {
		return
	}
	delta := func(name string) float64 { return now["nexusd_"+name] - s.scrape0["nexusd_"+name] }
	meanMS := func(hist string) float64 {
		return 1000 * ratio(delta(hist+"_sum"), delta(hist+"_count"))
	}
	stage := func(name string) float64 {
		return 1000 * ratio(delta(`pipeline_stage_seconds_sum{stage="`+name+`"}`), delta(`pipeline_stage_seconds_count{stage="`+name+`"}`))
	}
	rounds := float64(s.outcomes["hit"]+s.outcomes["shared"]+s.outcomes["miss"]) / float64(len(s.cycle))
	misses := float64(s.outcomes["miss"])

	m["server.queue_wait_ms"] = meanMS("job_queue_wait_seconds")
	m["server.run_ms"] = meanMS("job_run_seconds")
	m["server.http_overhead_ms"] = median(s.overMS) - m["server.queue_wait_ms"]
	m["server.shed"] = delta("jobs_shed_batch_total")
	m["server.rejected"] = delta("jobs_rejected_total")
	m["server.errors"] = delta("jobs_failed_total") + delta("jobs_timeout_total") + delta("jobs_cancelled_total")

	// Cache counts are per cycle; hits + shared is fixed by the schedule.
	m["reportcache.hits"] = ratio(float64(s.outcomes["hit"]), rounds)
	m["reportcache.shared"] = ratio(float64(s.outcomes["shared"]), rounds)
	m["reportcache.misses"] = ratio(misses, rounds)
	m["reportcache.hit_ratio"] = ratio(float64(s.outcomes["hit"]+s.outcomes["shared"]), rounds*float64(len(s.cycle)))
	m["reportcache.hit_p50_ms"] = median(s.hitMS)
	m["reportcache.miss_p50_ms"] = median(s.missMS)
	xh, xm := delta("extract_cache_hits_total"), delta("extract_cache_misses_total")
	m["extractcache.hit_ratio"] = ratio(xh, xh+xm)

	// The pipeline inside the daemon, per miss: stage times from the
	// server's per-stage histograms, counts from its shared counter set.
	m["nexus.prepare_ms"] = stage("prepare")
	m["extract.extract_ms"] = stage("kg_extract")
	m["core.offline_prune_ms"] = stage("offline_prune")
	m["core.online_prune_ms"] = stage("online_prune")
	m["core.mcimr_ms"] = stage("mcimr")
	m["core.explain_ms"] = stage("core_explain")
	m["subgroups.search_ms"] = stage("subgroup_search")
	for counter, metric := range counterMetrics {
		m[metric] = ratio(delta(obs.SanitizeMetricName(counter)+"_total"), misses)
	}
	m["core.speculative_win_ratio"] = ratio(delta(obs.SpeculativeWins+"_total"), delta(obs.SpeculativeEvals+"_total"))
}
