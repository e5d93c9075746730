package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"nexus/internal/obs"
)

// traceDir is where a traced run writes its spans, relative to the checkout
// root the benchmark is run from.
const traceDir = "bench/out"

// config is one run of one workload.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	scaleName string
	scale     scale
	outDir    string // traceDir, or a temp directory under test
	// setupReps is how many times the run builds its inputs and boots its
	// daemons; setup_s reports the median build plus the one warm-up.
	setupReps int
}

// instance is a workload with its inputs generated and its daemons booted.
type instance interface {
	// round is the number of ops in one pass over the workload's query
	// cycle. The measured window ends on a round boundary, so every run
	// measures the same mix of ops however many fit into it.
	round() int
	// warmup runs unmeasured ops until caches are filled and lazy set-up
	// is done.
	warmup(ctx context.Context) error
	// run executes op i: the one-call op when tc is nil, the staged op
	// otherwise.
	run(ctx context.Context, i int, tc *tracer) opResult
	close() error
}

// layerer is an instance with per-layer metrics of its own, added after a
// traced run to the ones every workload shares.
type layerer interface {
	layers(tr *traced, m map[string]float64)
}

// auditor is an instance with a check over the whole measured window, beyond
// the per-op output check; succeeded is the number of ops that passed that.
type auditor interface {
	audit(succeeded int) error
}

// traced is what a traced run collects besides its spans: the pipeline
// counters of the traced ops' one-call paths, and per-op derived samples.
type traced struct {
	rec     *recorder
	totals  *obs.Counters
	samples map[string][]float64
}

func (tr *traced) sample(name string, v float64) {
	tr.samples[name] = append(tr.samples[name], v)
}

// perOp is a counter's mean per traced op.
func (tr *traced) perOp(name string) float64 {
	return ratio(float64(tr.totals.Get(name)), float64(tr.totals.Get(ctrOps)))
}

// Counters the benchmark itself adds to a traced run's totals.
const (
	ctrOps              = "bench_ops"
	ctrCandidatesIn     = "bench_candidates_in"
	ctrCandidatesOffl   = "bench_candidates_after_offline"
	ctrCandidatesOnline = "bench_candidates_after_online"
)

// outcome is the result of one run, printed as the run's last line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// digests maps each query key to the digest of its answer and latencies
	// to the latencies of its ops in ms; failures lists what the output
	// check rejected. All three go to stderr.
	digests   map[string]string
	latencies map[string][]float64
	failures  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets one workload up, measures it for cfg.seconds and checks
// its outputs.
func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	build, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadOrder)
	}

	var inst instance
	var builds []float64
	for i := 0; i < cfg.setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: tear-down: %w", cfg.workload, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = build(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := inst.warmup(ctx); err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: warm-up: %w", cfg.workload, err)
	}
	setupS := median(builds) + time.Since(t0).Seconds()

	var tr *traced
	if cfg.trace {
		tr = &traced{rec: newRecorder(cfg.workload), totals: obs.NewCounters(), samples: map[string][]float64{}}
	}
	w := measure(ctx, inst, cfg, tr)
	out := w.check()
	if a, ok := inst.(auditor); ok {
		if err := a.audit(w.ok()); err != nil {
			out.Correct = false
			out.failures = append(out.failures, err.Error())
		}
	}

	if cfg.trace {
		m := w.layerMetrics(tr)
		if l, ok := inst.(layerer); ok {
			l.layers(tr, m)
		}
		m["extract.us_per_attr"] = ratio(m["extract.extract_ms"]*1000, m["extract.attrs"])
		m["subgroups.us_per_group"] = ratio(m["subgroups.search_ms"]*1000, m["subgroups.groups_scored"])
		m["subgroups.explored_per_pushed"] = ratio(m["subgroups.nodes_explored"], m["subgroups.nodes_pushed"])
		out.Metrics = pick(perLayer, m)
	} else {
		out.Metrics = pick(endToEnd, map[string]float64{
			"setup_s":      setupS,
			"op_p50_ms":    mean(w.slotMedians(false, w.latencyMS)),
			"ops_per_s":    ratio(float64(w.round), sum(w.slotMedians(false, w.wallS))),
			"cpu_s_per_op": ratio(sum(w.slotMedians(false, w.cpuS)), float64(w.round)),
			"peak_rss_mb":  w.peakRSSMB,
		})
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := tr.rec.write(cfg.outDir); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", cfg.workload, err)
		}
	}
	return out, nil
}

// pick renders the metrics named by defs; a metric the run did not produce
// reads 0.
func pick(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// minRounds is the least number of rounds an untraced run measures, however
// short --seconds is: the end-to-end timings are medians over the rounds, and
// a median of fewer than three values rejects nothing.
const minRounds = 3

// window is the measured part of a run.
type window struct {
	round   int
	results []opResult // by op index
	isTrace []bool     // by op index: ran staged
	// wall[i] and cpu[i] are the wall-clock and the process's CPU time op i
	// took, the benchmark's own work around it (digest, bookkeeping) included.
	wall []time.Duration
	cpu  []time.Duration

	peakRSSMB float64
	allocMB   float64
	mallocs   float64
	gcPauseMS float64
}

// measure drives the closed loop: one client runs the ops in order, each
// after the one before has returned, until the first round boundary after the
// deadline, and for at least minRounds rounds. On a traced run odd rounds run
// staged and even rounds run the one-call op, so the two are interleaved in
// time and the traced run holds its own untraced baseline; it ends after an
// even number of rounds.
func measure(ctx context.Context, inst instance, cfg config, tr *traced) *window {
	w := &window{round: inst.round()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		rounds := i / w.round
		if i%w.round == 0 && time.Now().After(deadline) &&
			((tr == nil && rounds >= minRounds) || (tr != nil && rounds >= 2 && rounds%2 == 0)) {
			break
		}
		staged := tr != nil && rounds%2 == 1
		var tc *tracer
		cpu0, start := cpuTime(), time.Now()
		if staged {
			tc = &tracer{tr: tr, op: i}
			tc.root = tr.rec.begin(i, 0, "op")
		}
		res := inst.run(ctx, i, tc)
		if staged {
			tr.rec.end(tc.root)
			tr.totals.Add(ctrOps, 1)
		}
		w.results = append(w.results, res)
		w.isTrace = append(w.isTrace, staged)
		w.wall = append(w.wall, time.Since(start))
		w.cpu = append(w.cpu, cpuTime()-cpu0)
	}
	runtime.ReadMemStats(&ms1)

	n := float64(len(w.results))
	w.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	w.mallocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	w.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	w.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return w
}

// cpuTime is the user+system CPU time of this process so far: every thread,
// so pipeline parallelism counts, and so do the daemons of serve_mix and
// flights_dist, which run inside it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check is the output check. An op fails when it returned an error or when
// its answer differs from the first answer to the same query in this run —
// which also holds every staged answer to the one-call answer, since the
// two alternate over the same queries.
func (w *window) check() *outcome {
	out := &outcome{Attempted: len(w.results), digests: map[string]string{}, latencies: map[string][]float64{}}
	for i := range w.results {
		r := &w.results[i]
		if r.err == nil {
			d := r.answer.digest()
			if first, seen := out.digests[r.key]; !seen {
				out.digests[r.key] = d
			} else if d != first {
				r.err = fmt.Errorf("answer digest %s differs from the first answer %s", d, first)
			}
		}
		if r.err != nil {
			out.Failed++
			out.failures = append(out.failures, fmt.Sprintf("op %d (%s): %v", i, r.key, r.err))
		} else {
			out.latencies[r.key] = append(out.latencies[r.key], float64(r.latency)/1e6)
		}
	}
	out.Correct = out.Failed == 0
	return out
}

func (w *window) ok() int {
	n := 0
	for _, r := range w.results {
		if r.err == nil {
			n++
		}
	}
	return n
}

// slotMedians returns, per slot of the round, the median of f over the ops
// that filled the slot in the rounds of the given kind. Every round runs the
// same ops in the same order, so a slot's ops differ only in when they ran:
// the median across rounds drops the rounds in which the shared host was busy
// with something else, where a mean over the window would carry them.
func (w *window) slotMedians(staged bool, f func(i int) float64) []float64 {
	out := make([]float64, w.round)
	for slot := range out {
		var xs []float64
		for i := slot; i < len(w.results); i += w.round {
			if w.isTrace[i] == staged && w.results[i].err == nil {
				xs = append(xs, f(i))
			}
		}
		out[slot] = median(xs)
	}
	return out
}

// latencyMS is the caller-observed latency of op i; wallS and cpuS are the
// wall-clock and CPU time the closed loop spent on it. Summed over a round's
// slots they give the round's wall-clock and CPU time.
func (w *window) latencyMS(i int) float64 { return float64(w.results[i].latency) / 1e6 }
func (w *window) wallS(i int) float64     { return w.wall[i].Seconds() }
func (w *window) cpuS(i int) float64      { return w.cpu[i].Seconds() }

// counterMetrics maps the pipeline's obs counters (and the benchmark's own)
// to the per-layer metrics that report them, as a mean per op.
var counterMetrics = map[string]string{
	obs.KGAttrs:               "extract.attrs",
	obs.EntitiesLinked:        "ned.entities_linked",
	obs.EntitiesUnresolved:    "ned.entities_unresolved",
	obs.IPWFits:               "nexus.ipw_fits",
	obs.BiasedAttrs:           "nexus.biased_attrs",
	ctrCandidatesIn:           "core.candidates_in",
	ctrCandidatesOffl:         "core.candidates_after_offline",
	ctrCandidatesOnline:       "core.candidates_after_online",
	obs.CITests:               "core.ci_tests",
	obs.PermutationsRun:       "core.permutations_run",
	obs.MCIMRIterations:       "core.mcimr_iterations",
	obs.EncCacheHits:          "core.enc_cache_hits",
	obs.CountingDensePasses:   "counting.dense_passes",
	obs.CountingSparsePasses:  "counting.sparse_passes",
	obs.CountingPartitions:    "counting.partitions",
	obs.GroupsScored:          "subgroups.groups_scored",
	obs.SubgroupNodesExplored: "subgroups.nodes_explored",
	obs.SubgroupNodesPushed:   "subgroups.nodes_pushed",
	obs.RowsetCacheHits:       "subgroups.rowset_cache_hits",
}

// layerMetrics derives the per-layer metrics every workload shares from the
// spans, counters and samples of a traced run.
func (w *window) layerMetrics(tr *traced) map[string]float64 {
	spans := tr.rec.snapshot()
	m := map[string]float64{}
	for name, metric := range map[string]string{
		"colstore.ingest":    "colstore.ingest_ms",
		"colstore.drain":     "colstore.drain_ms",
		"sqlx.parse":         "sqlx.parse_us",
		"sqlx.execute":       "sqlx.execute_ms",
		"extract.extract":    "extract.extract_ms",
		"nexus.prepare":      "nexus.prepare_ms",
		"core.offline_prune": "core.offline_prune_ms",
		"core.online_prune":  "core.online_prune_ms",
		"core.mcimr":         "core.mcimr_ms",
		"core.explain":       "core.explain_ms",
		"subgroups.search":   "subgroups.search_ms",
	} {
		m[metric] = median(spanMillis(spans, name))
	}
	m["sqlx.parse_us"] *= 1000
	for name, xs := range tr.samples {
		m[name] = median(xs)
	}

	for counter, metric := range counterMetrics {
		m[metric] = tr.perOp(counter)
	}
	m["core.speculative_win_ratio"] = ratio(float64(tr.totals.Get(obs.SpeculativeWins)), float64(tr.totals.Get(obs.SpeculativeEvals)))

	m["runtime.alloc_mb_per_op"] = w.allocMB
	m["runtime.mallocs_per_op"] = w.mallocs
	m["runtime.gc_pause_ms_per_op"] = w.gcPauseMS

	// Tracing overhead: the staged rounds' one-call path against the
	// untraced rounds of the same run (base: untraced).
	m["op_p50_ms"] = mean(w.slotMedians(false, w.latencyMS))
	m["obs.trace_overhead_ratio"] = ratio(mean(w.slotMedians(true, w.latencyMS)), m["op_p50_ms"])
	// Coverage: the share of each traced op that its top-level spans cover.
	self := selfTimes(spans)
	var cover []float64
	for _, s := range spans {
		if s.Parent == 0 && s.dur() > 0 {
			cover = append(cover, 1-float64(self[s.Span])/float64(s.dur()))
		}
	}
	m["trace.coverage_ratio"] = median(cover)
	m["trace.ops"] = float64(tr.totals.Get(ctrOps))

	var all, quality []float64
	for _, r := range w.results {
		if r.err != nil {
			continue
		}
		all = append(all, float64(r.latency)/1e6)
		if r.quality >= 0 {
			quality = append(quality, r.quality)
		}
	}
	if p95, ok := percentile(all, 0.95); ok {
		m["op_p95_ms"] = p95
	}
	m["gt_quality"] = mean(quality)
	m["failed_ratio"] = ratio(float64(len(w.results)-w.ok()), float64(len(w.results)))
	return m
}
