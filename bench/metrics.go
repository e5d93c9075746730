package main

import (
	"math"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json. bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package name), taken
// from the traced run only. A workload that bypasses a layer reports 0 for
// it. Counts are means per traced op, so they do not depend on how many ops
// fitted into the measured window and repeat exactly from run to run.
var perLayer = []metricDef{
	{"colstore.ingest_ms", "ms", "lower", 0},
	{"colstore.drain_ms", "ms", "lower", 0},
	{"colstore.ingest_mrows_s", "Mrows/s", "higher", 0},
	{"colstore.chunk_bytes_per_row", "B/row", "lower", 0},

	{"sqlx.parse_us", "us", "lower", 0},
	{"sqlx.execute_ms", "ms", "lower", 0},

	{"extract.extract_ms", "ms", "lower", 0},
	{"extract.us_per_attr", "us", "lower", 0},
	{"extract.attrs", "count", "lower", 0},
	{"ned.entities_linked", "count", "higher", 0},
	{"ned.entities_unresolved", "count", "lower", 0},

	{"nexus.prepare_ms", "ms", "lower", 0},
	{"nexus.prepare_self_ms", "ms", "lower", 0},
	{"nexus.ipw_fits", "count", "lower", 0},
	{"nexus.biased_attrs", "count", "lower", 0},

	{"core.offline_prune_ms", "ms", "lower", 0},
	{"core.online_prune_ms", "ms", "lower", 0},
	{"core.mcimr_ms", "ms", "lower", 0},
	{"core.explain_ms", "ms", "lower", 0},
	{"core.online_prune_ns_per_row_cand", "ns", "lower", 0},
	{"core.candidates_in", "count", "lower", 0},
	{"core.candidates_after_offline", "count", "lower", 0},
	{"core.candidates_after_online", "count", "lower", 0},
	{"core.ci_tests", "count", "lower", 0},
	{"core.permutations_run", "count", "lower", 0},
	{"core.mcimr_iterations", "count", "lower", 0},
	{"core.enc_cache_hits", "count", "higher", 0},
	{"core.speculative_win_ratio", "ratio", "higher", 0},

	{"counting.screen_ns_per_row", "ns", "lower", 0},
	{"counting.dense_passes", "count", "lower", 0},
	{"counting.sparse_passes", "count", "lower", 0},
	{"counting.partitions", "count", "lower", 0},

	{"subgroups.search_ms", "ms", "lower", 0},
	{"subgroups.us_per_group", "us", "lower", 0},
	{"subgroups.groups_scored", "count", "lower", 0},
	{"subgroups.nodes_explored", "count", "lower", 0},
	{"subgroups.nodes_pushed", "count", "lower", 0},
	{"subgroups.explored_per_pushed", "ratio", "higher", 0},
	{"subgroups.rowset_cache_hits", "count", "higher", 0},

	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.run_ms", "ms", "lower", 0},
	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},

	{"reportcache.hit_ratio", "ratio", "higher", 0},
	{"reportcache.hits", "count", "higher", 0},
	{"reportcache.misses", "count", "lower", 0},
	{"reportcache.shared", "count", "higher", 0},
	{"reportcache.hit_p50_ms", "ms", "lower", 0},
	{"reportcache.miss_p50_ms", "ms", "lower", 0},
	{"extractcache.hit_ratio", "ratio", "higher", 0},

	{"kgremote.prepare_ms", "ms", "lower", 0},
	{"kgremote.http_requests", "count", "lower", 0},
	{"kgremote.retries", "count", "lower", 0},
	{"kgremote.cache_hit_ratio", "ratio", "higher", 0},
	{"kgremote.ms_per_request", "ms", "lower", 0},
	{"kg.local_prepare_ms", "ms", "lower", 0},

	{"distremote.explain_ms", "ms", "lower", 0},
	{"distremote.subgroups_ms", "ms", "lower", 0},
	{"distremote.units", "count", "lower", 0},
	{"distremote.http_requests", "count", "lower", 0},
	{"distremote.retries", "count", "lower", 0},
	{"distremote.hedges", "count", "lower", 0},
	{"distremote.fallbacks", "count", "lower", 0},
	{"distremote.ms_per_unit", "ms", "lower", 0},
	{"distremote.slowdown_vs_local", "ratio", "lower", 0},
	{"baseline.local_op_ms", "ms", "lower", 0},

	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},

	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
	{"trace.coverage_ratio", "ratio", "higher", 0},
	{"trace.ops", "count", "higher", 0},

	// Demoted from end-to-end: each is 0, constant, or undefined on some
	// workload, so it cannot carry a relative bound there (see README).
	{"op_p95_ms", "ms", "lower", 0},
	{"gt_quality", "ratio", "higher", 0},
	{"failed_ratio", "ratio", "lower", 0},
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the q-quantile of xs, and false when fewer than
// minBeyond samples lie beyond it — a tail estimate from a handful of
// samples is noise, not a metric.
func percentile(xs []float64, q float64) (float64, bool) {
	beyond := int(math.Floor(float64(len(xs)) * (1 - q)))
	if beyond < minBeyond {
		return 0, false
	}
	return quantile(xs, q), true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
