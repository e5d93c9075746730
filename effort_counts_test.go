package nexus_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/workload"
)

// effortCount is one counter of a finished trace.
type effortCount struct {
	name string
	n    int64
}

// effortCounts pins, per workload, every counter TestEffortCountsExact's
// run leaves in its trace, sorted by name. A change that moves pipeline
// effort edits this table in the same commit: the failing test prints the
// observed table ready to paste over the stale one.
var effortCounts = map[string][]effortCount{
	"so": {
		{"biased_attrs", 9},
		{"candidates_scored", 55},
		{"ci_tests", 526},
		{"composite_rebuilds", 3},
		{"counting_dense_passes", 1913},
		{"counting_id_joins", 4},
		{"counting_partitions", 495},
		{"entities_ambiguous", 0},
		{"entities_linked", 189},
		{"entities_unresolved", 5},
		{"groups_scored", 1500},
		{"ipw_fits", 9},
		{"kg_attrs", 393},
		{"kg_attrs_hop1", 393},
		{"mcimr_iterations", 2},
		{"mcimr_skips", 11},
		{"permutations_run", 2056},
		{"pruned.offline.constant", 2},
		{"pruned.offline.high-entropy", 4},
		{"pruned.online.low-relevance", 340},
		{"subgroup_batches", 376},
		{"subgroup_nodes_explored", 1500},
		{"subgroup_nodes_pushed", 2784},
		{"subgroup_rows_visited", 4318510},
		{"subgroup_slot_scored", 424},
	},
	"flights": {
		{"biased_attrs", 17},
		{"candidates_scored", 55},
		{"ci_tests", 1281},
		{"composite_rebuilds", 1},
		{"cond_walks", 6},
		{"counting_dense_passes", 2020},
		{"counting_id_joins", 2},
		{"counting_partitions", 859},
		{"entities_ambiguous", 0},
		{"entities_linked", 654},
		{"entities_unresolved", 100},
		{"groups_scored", 1500},
		{"ipw_fits", 17},
		{"kg_attrs", 934},
		{"kg_attrs_hop1", 934},
		{"mcimr_iterations", 1},
		{"mcimr_skips", 11},
		{"permutations_run", 4700},
		{"pruned.offline.constant", 3},
		{"pruned.offline.high-entropy", 2},
		{"pruned.online.low-relevance", 883},
		{"subgroup_batches", 378},
		{"subgroup_nodes_explored", 1500},
		{"subgroup_nodes_pushed", 3216},
		{"subgroup_rows_visited", 10699151},
		{"subgroup_slot_scored", 295},
	},
}

// TestEffortCountsExact is the deterministic half of performance tracking:
// how much work one Explain + Subgroups(5, 0) does on two seeded workloads
// (candidates pruned, CI tests and permutations run, counting-kernel passes,
// lattice nodes pushed and scored), compared exactly. Wall clock is
// bench/run.sh's job. Core.Parallelism is 1 because at higher settings
// permTest's early exit races its sibling blocks, and permutations_run and
// counting_dense_passes drift by a few per run.
//
// Not t.Parallel(): the counting_* entries are deltas of process-wide
// counters, so a concurrent Explain in this process would leak into them.
func TestEffortCountsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("two full explanations; skipped in -short mode")
	}
	workloads := []struct {
		key   string
		rows  int
		make  func(*kg.World, workload.Config) *workload.Dataset
		query string
	}{
		{"so", 8000, workload.StackOverflow, "SELECT Country, avg(Salary) FROM SO GROUP BY Country"},
		{"flights", 20000, workload.Flights, flightsQuery},
	}
	for _, w := range workloads {
		t.Run(w.key, func(t *testing.T) {
			tr := obs.New(w.key)
			world := kg.NewWorld(kg.WorldConfig{Seed: 11})
			ds := w.make(world, workload.Config{Rows: w.rows, Seed: 12})
			ctx := obs.WithTrace(context.Background(), tr)
			opts := &nexus.Options{}
			opts.Core.Parallelism = 1
			sess := nexus.NewSession(world.Graph, opts)
			sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
			sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
			rep, err := sess.ExplainCtx(ctx, w.query)
			if err != nil {
				t.Fatal(err)
			}
			// The noise-free form of "a KG candidate never becomes an n-long
			// vector": the explain itself broadcasts none of them.
			if v := tr.Counters().Get(obs.KGRowEncodings); v != 0 {
				t.Errorf("kg_row_encodings = %d after Explain, want 0", v)
			}
			if _, _, err := rep.SubgroupsCtx(ctx, 5, 0); err != nil {
				t.Fatal(err)
			}

			counters := tr.Close().Counters
			// The noise-free form of "the lattice search costs the group, not
			// the table": its histogram, carve and tally passes together touch
			// fewer rows than half a table scan per scored group (the masked
			// full-table scorer and the per-attribute partitions it replaced
			// touched 1.65 table scans per group on Flights).
			if w.key == "flights" {
				if v, bound := counters[obs.SubgroupRowsVisited], counters[obs.GroupsScored]*int64(w.rows)/2; v >= bound {
					t.Errorf("subgroup_rows_visited = %d, want < groups_scored × rows / 2 = %d", v, bound)
				}
			}
			// The subgroup search broadcasts none either: it reads its
			// knowledge-graph dimensions and the explanation in entity form.
			if v := counters[obs.KGRowEncodings]; v != 0 {
				t.Errorf("kg_row_encodings = %d after Explain and Subgroups, want 0", v)
			}
			var got []effortCount
			for name, n := range counters {
				got = append(got, effortCount{name, n})
			}
			slices.SortFunc(got, func(a, b effortCount) int { return strings.Compare(a.name, b.name) })
			if slices.Equal(got, effortCounts[w.key]) {
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, "\t%q: {\n", w.key)
			for _, c := range got {
				fmt.Fprintf(&b, "\t\t{%q, %d},\n", c.name, c.n)
			}
			b.WriteString("\t},\n")
			t.Errorf("effort counters differ from the pinned table; if the change is intended, "+
				"replace the %q entry of effortCounts with:\n%s", w.key, b.String())
		})
	}
}

// TestMetricsWithoutTraceGetsEveryCounter pins the one route by which a
// pipeline counter reaches a counter set: a session's Options.Metrics, on
// calls whose context carries no trace, ends with the counter table the same
// calls leave in a trace over a fresh set — the counting kernel's, the
// extraction's and the core's as well as the lazy stages' and the subgroup
// search's. Covid-19 Q1 (world seed 11, rows seed 13) plus SubgroupsCtx(3),
// at Core.Parallelism 1 so that both runs do the same work.
//
// Not t.Parallel(), for the reason TestEffortCountsExact gives.
func TestMetricsWithoutTraceGetsEveryCounter(t *testing.T) {
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	ds := workload.Covid(world, workload.Config{Seed: 13})
	run := func(ctx context.Context, metrics *obs.Counters) {
		t.Helper()
		opts := &nexus.Options{Metrics: metrics}
		opts.Core.Parallelism = 1
		sess := nexus.NewSession(world.Graph, opts)
		sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
		sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
		rep, err := sess.ExplainCtx(ctx, "SELECT Country, avg(Deaths_per_100_cases) FROM `Covid-19` GROUP BY Country")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rep.SubgroupsCtx(ctx, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	metrics := obs.NewCounters()
	run(context.Background(), metrics)
	tr := obs.New("traced")
	run(obs.WithTrace(context.Background(), tr), nil)
	want, got := tr.Close().Counters, metrics.Snapshot()

	var diffs []string
	for name := range want {
		if got[name] != want[name] {
			diffs = append(diffs, fmt.Sprintf("%s: %d of %d", name, got[name], want[name]))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %d, absent under a trace", name, got[name]))
		}
	}
	if len(want) == 0 {
		t.Fatal("the traced run left no counter")
	}
	if len(diffs) > 0 {
		slices.Sort(diffs)
		t.Errorf("Options.Metrics without a trace differs from a trace's set on %d of %d counters:\n\t%s",
			len(diffs), len(want), strings.Join(diffs, "\n\t"))
	}
}
