package nexus_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/harness"
	"nexus/internal/infotheory"
	"nexus/internal/workload"
)

// TestResponsibilityAppliesIPWWeights pins Analysis.Responsibility to the
// scoring Explain applies to its own explanation: for a set with an
// IPW-weighted attribute the shares are Float64bits-equal to core.ScoreSet's
// and to Def. 2.5 computed over rows under the product of the attributes'
// row weights, and differ from the unweighted shares.
func TestResponsibilityAppliesIPWWeights(t *testing.T) {
	w := integrationWorld()
	so := workload.StackOverflow(w, workload.Config{Rows: 5000, Seed: 1})
	sess := nexus.NewSession(w.Graph, nil)
	sess.RegisterTable(so.Name, so.Table, so.LinkColumns...)
	a, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"GDP Rank", "Code Group 080"}
	cands := make([]*core.Candidate, len(names))
	weighted := 0
	for i, n := range names {
		if cands[i] = a.Candidate(n); cands[i] == nil {
			t.Fatalf("fixture: no candidate %q", n)
		}
		if cands[i].Entity.Weights() != nil {
			weighted++
		}
	}
	if weighted == 0 {
		t.Fatal("fixture: no attribute of the set carries IPW weights")
	}

	got, err := a.Responsibility(names)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := core.ScoreSet(a.T, a.O, cands)
	if err != nil {
		t.Fatal(err)
	}

	// Def. 2.5 over rows: the broadcast encodings under the product of the
	// broadcast weights, multiplied in set order.
	encs := make([]infotheory.Var, len(cands))
	var rowW []float64
	for i, c := range cands {
		if encs[i], err = c.Enc(); err != nil {
			t.Fatal(err)
		}
		cw := c.Weights(encs[i])
		switch {
		case cw == nil:
		case rowW == nil:
			rowW = append([]float64(nil), cw...)
		default:
			for r := range rowW {
				rowW[r] *= cw[r]
			}
		}
	}
	leaveOut := func(w []float64, i int) float64 {
		rest := append(append([]infotheory.Var{}, encs[:i]...), encs[i+1:]...)
		return infotheory.CondMutualInfo(a.O, a.T, rest, infotheory.Weights{W: w}) - infotheory.CondMutualInfo(a.O, a.T, encs, infotheory.Weights{W: w})
	}
	shares := func(w []float64) []float64 {
		d0, d1 := leaveOut(w, 0), leaveOut(w, 1)
		return []float64{d0 / (d0 + d1), d1 / (d0 + d1)}
	}
	rows, unweighted := shares(rowW), shares(nil)
	for i, n := range names {
		g := math.Float64bits(got[n])
		if g != math.Float64bits(want[i]) || g != math.Float64bits(rows[i]) {
			t.Errorf("%s: Responsibility %v, core.ScoreSet %v, weighted Def. 2.5 over rows %v", n, got[n], want[i], rows[i])
		}
		if g == math.Float64bits(unweighted[i]) {
			t.Errorf("%s: the weighted share %v equals the unweighted one; the fixture does not tell them apart", n, got[n])
		}
	}
}

// TestResponsibilityRejectsSharedName pins that Responsibility never picks
// one of two candidates that share a name. On Covid-19 Q3 the input column
// Continent and a knowledge-graph attribute Continent are both candidates:
// asking for "Continent" is an error that names both origins, while a name
// only one candidate carries still scores.
func TestResponsibilityRejectsSharedName(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the harness's four datasets")
	}
	s := harness.NewSuite(11, harness.TestScale())
	var spec harness.QuerySpec
	for _, q := range harness.Queries() {
		if q.Key() == "Covid-19 Q3" {
			spec = q
		}
	}
	a, err := s.Session(spec.Dataset).PrepareCtx(context.Background(), spec.SQL)
	if err != nil {
		t.Fatal(err)
	}
	origins := map[core.Origin]bool{}
	for _, c := range a.Candidates {
		if c.Name == "Continent" {
			origins[c.Origin] = true
		}
	}
	if !origins[core.OriginInput] || !origins[core.OriginKG] {
		t.Fatalf("fixture: Continent origins %v, want an input column and a KG attribute", origins)
	}
	_, err = a.Responsibility([]string{"Continent"})
	if err == nil {
		t.Fatal("Responsibility resolved the shared name Continent to one candidate")
	}
	for o := range origins {
		if !strings.Contains(err.Error(), string(o)) {
			t.Errorf("error %q does not name origin %s", err, o)
		}
	}
	if _, err := a.Responsibility([]string{"Confirmed_cases"}); err != nil {
		t.Errorf("a name one candidate carries: %v", err)
	}
}
