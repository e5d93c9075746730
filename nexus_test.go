package nexus

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"nexus/internal/core"
	"nexus/internal/kg"
	"nexus/internal/workload"
)

var (
	worldOnce sync.Once
	world     *kg.World
)

func sharedWorld() *kg.World {
	worldOnce.Do(func() { world = kg.NewWorld(kg.WorldConfig{Seed: 42}) })
	return world
}

func soSession(t testing.TB, rows int) *Session {
	t.Helper()
	w := sharedWorld()
	ds := workload.StackOverflow(w, workload.Config{Rows: rows, Seed: 1})
	sess := NewSession(w.Graph, nil)
	sess.RegisterTable("SO", ds.Table, ds.LinkColumns...)
	return sess
}

func covidSession(t testing.TB) *Session {
	t.Helper()
	w := sharedWorld()
	ds := workload.Covid(w, workload.Config{Seed: 2})
	sess := NewSession(w.Graph, nil)
	sess.RegisterTable("Covid", ds.Table, ds.LinkColumns...)
	return sess
}

// economic reports whether an attribute name is one of the planted
// economy/development attributes.
func economic(name string) bool {
	for _, e := range []string{"HDI", "GDP", "Gini", "Median Household Income"} {
		if strings.Contains(name, e) {
			return true
		}
	}
	return false
}

func TestExplainSOQ1FindsEconomicConfounders(t *testing.T) {
	sess := soSession(t, 12000)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	ex := rep.Explanation
	if len(ex.Attrs) == 0 {
		t.Fatal("no explanation found for SO Q1")
	}
	foundEconomic := false
	for _, a := range ex.Attrs {
		if economic(a.Name) {
			foundEconomic = true
		}
	}
	if !foundEconomic {
		t.Fatalf("explanation %v contains no economic attribute", ex.Names())
	}
	if rep.ExplainedFraction() < 0.5 {
		t.Fatalf("explained only %.1f%% of I(O;T) (score %.3f of %.3f); attrs=%v",
			100*rep.ExplainedFraction(), ex.Score, ex.BaseScore, ex.Names())
	}
	// Economic attrs come from the KG, not the input table.
	for _, a := range ex.Attrs {
		if economic(a.Name) && a.Origin != "kg" {
			t.Fatalf("economic attribute %s has origin %s", a.Name, a.Origin)
		}
	}
}

func TestExplainSOQ3EuropeContext(t *testing.T) {
	sess := soSession(t, 20000)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Europe' GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	// Within Europe the HDI is clustered (planted), so HDI alone should not
	// dominate; the explanation may differ from the global one — but it
	// must still reduce the correlation.
	if len(rep.Explanation.Attrs) == 0 {
		t.Skip("no explanation found within Europe (acceptable at this scale)")
	}
	if rep.Explanation.Score >= rep.Explanation.BaseScore {
		t.Fatal("explanation did not reduce correlation in context query")
	}
}

func TestExplainCovidQ1(t *testing.T) {
	sess := covidSession(t)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY Covid_country GROUP BY Country")
	if err == nil {
		t.Fatal("malformed SQL accepted")
	}
	rep, err = sess.ExplainCtx(context.Background(), "SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	// With one row per country the exposure determines everything; the
	// explanation should still surface development/case-load attributes.
	if len(rep.Explanation.Attrs) == 0 {
		t.Fatal("no explanation for Covid Q1")
	}
	names := strings.Join(rep.Explanation.Names(), ", ")
	if !strings.Contains(names, "HDI") && !strings.Contains(names, "GDP") &&
		!strings.Contains(names, "Confirmed") && !strings.Contains(names, "Gini") &&
		!strings.Contains(names, "Median") {
		t.Fatalf("Covid Q1 explanation = %s", names)
	}
}

func TestLinkStatsRecorded(t *testing.T) {
	sess := soSession(t, 8000)
	a, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := a.LinkStats["Country"]
	if !ok {
		t.Fatal("no link stats for Country")
	}
	if st.Linked == 0 {
		t.Fatal("nothing linked")
	}
	// The planted spelling variants must fail to link.
	if st.Unlinked == 0 {
		t.Fatal("expected unlinked variants (Russian Federation, USA, ...)")
	}
}

func TestAliasRegistrationImprovesLinking(t *testing.T) {
	w := sharedWorld()
	ds := workload.StackOverflow(w, workload.Config{Rows: 8000, Seed: 1})
	sess := NewSession(w.Graph, nil)
	sess.RegisterTable("SO", ds.Table, ds.LinkColumns...)

	a1, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	before := a1.LinkStats["Country"].Unlinked

	if id, ok := w.Graph.Lookup("Russia"); ok {
		sess.Linker().AddAlias("Russian Federation", id)
	}
	if id, ok := w.Graph.Lookup("United States"); ok {
		sess.Linker().AddAlias("USA", id)
	}
	a2, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	after := a2.LinkStats["Country"].Unlinked
	if after >= before {
		t.Fatalf("aliases did not reduce unlinked: %d → %d", before, after)
	}
}

func TestPrepareCandidateComposition(t *testing.T) {
	sess := soSession(t, 6000)
	a, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	var input, kgN int
	for _, c := range a.Candidates {
		switch c.Origin {
		case "input":
			input++
		case "kg":
			kgN++
		}
	}
	if input == 0 || kgN < 200 {
		t.Fatalf("candidates input=%d kg=%d; want both, kg at Table-1 scale", input, kgN)
	}
	// T and O are not candidates.
	if a.Candidate("Country") != nil || a.Candidate("Salary") != nil {
		t.Fatal("exposure/outcome leaked into candidates")
	}
}

func TestNumBiasedAfterExplain(t *testing.T) {
	sess := soSession(t, 8000)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	// The world injects selection bias into ~15% of properties; at least a
	// few must be detected.
	if rep.Analysis.NumBiased() == 0 {
		t.Fatal("no selection-biased attributes detected (world plants ~15%)")
	}
}

func TestSubgroupsSOQ1(t *testing.T) {
	sess := soSession(t, 20000)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := rep.SubgroupsCtx(context.Background(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Groups (if any) must be ordered by size and carry conditions.
	for i, g := range groups {
		if len(g.Conds) == 0 || g.Size == 0 {
			t.Fatalf("group %d malformed: %+v", i, g)
		}
		if i > 0 && g.Size > groups[i-1].Size {
			t.Fatal("groups not size-ordered")
		}
	}
}

func TestResponsibilityAPI(t *testing.T) {
	sess := soSession(t, 8000)
	a, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := a.Responsibility([]string{"GDP", "Gini"})
	if err != nil {
		t.Fatal(err)
	}
	sum := resp["GDP"] + resp["Gini"]
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("responsibilities = %v", resp)
	}
	if _, err := a.Responsibility([]string{"NoSuchAttr"}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestSummaryRendering(t *testing.T) {
	sess := soSession(t, 6000)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"query:", "I(O;T|C)", "explanation", "candidates:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSessionWithoutGraph(t *testing.T) {
	w := sharedWorld()
	ds := workload.StackOverflow(w, workload.Config{Rows: 6000, Seed: 1})
	sess := NewSession(nil, nil)
	sess.RegisterTable("SO", ds.Table)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Explanation.Attrs {
		if a.Origin != "input" {
			t.Fatalf("graph-less session produced KG attribute %s", a.Name)
		}
	}
}

func TestDisableIPW(t *testing.T) {
	w := sharedWorld()
	ds := workload.StackOverflow(w, workload.Config{Rows: 6000, Seed: 1})
	sess := NewSession(w.Graph, &Options{DisableIPW: true})
	sess.RegisterTable("SO", ds.Table, ds.LinkColumns...)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analysis.NumBiased() != 0 {
		t.Fatal("bias detection ran with IPW disabled")
	}
}

func TestCoreWithDefaultKKeepsItsSettings(t *testing.T) {
	// A Core left at K 0 takes the default K and keeps every other field:
	// with the stopping tests off, MCIMR selects exactly that K.
	w := sharedWorld()
	ds := workload.StackOverflow(w, workload.Config{Rows: 3000, Seed: 1})
	sess := NewSession(w.Graph, &Options{Core: core.Options{DisableStopping: true}})
	sess.RegisterTable("SO", ds.Table, ds.LinkColumns...)
	rep, err := sess.ExplainCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Explanation.Attrs), core.DefaultOptions().K; got != want {
		t.Fatalf("selected %d attributes %v with stopping disabled, want K = %d", got, rep.Explanation.Names(), want)
	}
}

func TestPartialCorrelations(t *testing.T) {
	sess := soSession(t, 8000)
	a, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := a.PartialCorrelations([]string{"GDP", "Gini", "Language"})
	if err != nil {
		t.Fatal(err)
	}
	// GDP relates positively to salary, Gini negatively, after controlling
	// for each other.
	if pc["GDP"] < 0.2 {
		t.Fatalf("partial corr GDP = %v, want positive", pc["GDP"])
	}
	if pc["Gini"] > -0.1 {
		t.Fatalf("partial corr Gini = %v, want negative", pc["Gini"])
	}
	// Categorical attributes report NaN.
	if !math.IsNaN(pc["Language"]) {
		t.Fatalf("categorical attr partial corr = %v, want NaN", pc["Language"])
	}
}
