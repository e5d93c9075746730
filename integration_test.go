package nexus_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/sqlx"
	"nexus/internal/subgroups"
	"nexus/internal/workload"
)

var (
	itWorldOnce sync.Once
	itWorld     *kg.World
)

func integrationWorld() *kg.World {
	itWorldOnce.Do(func() { itWorld = kg.NewWorld(kg.WorldConfig{Seed: 42}) })
	return itWorld
}

// TestEndToEndCovidPipeline drives the full public pipeline: generate →
// register → query → explain → responsibilities → subgroups → subgroup
// re-explanation.
func TestEndToEndCovidPipeline(t *testing.T) {
	w := integrationWorld()
	ds := workload.Covid(w, workload.Config{Seed: 2})
	sess := nexus.NewSession(w.Graph, nil)
	sess.RegisterTable("Covid", ds.Table, ds.LinkColumns...)

	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Explanation.Attrs) == 0 {
		t.Fatal("no explanation")
	}
	if rep.ExplainedFraction() <= 0.2 {
		t.Fatalf("explained only %.0f%%", 100*rep.ExplainedFraction())
	}
	// Responsibilities of the selected set sum to 1.
	sum := 0.0
	for _, a := range rep.Explanation.Attrs {
		sum += a.Responsibility
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("responsibilities sum to %v", sum)
	}

	groups, _, err := rep.SubgroupsCtx(context.Background(), 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		// Only refinements over input columns are SQL-expressible.
		expressible := true
		for _, c := range g.Conds {
			if !rep.Analysis.View.HasColumn(c.Attr) {
				expressible = false
			}
		}
		sub, err := rep.ExplainSubgroupCtx(context.Background(), g)
		if expressible {
			if err != nil {
				t.Fatalf("ExplainSubgroupCtx(%s): %v", g.String(), err)
			}
			if sub.Analysis.View.NumRows() != g.Size {
				t.Fatalf("subgroup view has %d rows, group size %d", sub.Analysis.View.NumRows(), g.Size)
			}
		} else if err == nil {
			t.Fatalf("ExplainSubgroupCtx(%s) should fail for extracted-attribute conditions", g.String())
		}
	}
}

// TestExplainSubgroupRefinesEurope pins the Example 4.5 workflow on SO.
func TestExplainSubgroupRefinesEurope(t *testing.T) {
	w := integrationWorld()
	ds := workload.StackOverflow(w, workload.Config{Rows: 10000, Seed: 1})
	sess := nexus.NewSession(w.Graph, nil)
	sess.RegisterTable("SO", ds.Table, ds.LinkColumns...)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the Europe refinement (regardless of whether Algorithm 2
	// surfaces it at the default τ on this draw).
	g := subgroups.Group{Conds: []subgroups.Assignment{{Attr: "Continent", Value: "Europe"}}}
	sub, err := rep.ExplainSubgroupCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sub.Analysis.Query.String(), "Continent = 'Europe'") {
		t.Fatalf("refined query = %s", sub.Analysis.Query.String())
	}
	if sub.Explanation.BaseScore >= rep.Explanation.BaseScore {
		t.Log("note: within-Europe correlation not smaller than global (acceptable)")
	}
}

// TestQueryStringRoundTrip: every canonical rendering re-parses to the same
// structure.
func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT Country, avg(Salary) FROM SO GROUP BY Country",
		"SELECT a, b, sum(x) FROM t WHERE c = 'v' AND d >= 3 GROUP BY a, b",
		"SELECT k, count(v) FROM t JOIN u ON k = kk GROUP BY k",
	}
	for _, src := range srcs {
		q1, err := sqlx.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		q2, err := sqlx.Parse(q1.String())
		if err != nil {
			t.Fatalf("round trip of %q: %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Fatalf("unstable rendering: %q vs %q", q1.String(), q2.String())
		}
	}
}
