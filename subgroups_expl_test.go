package nexus_test

import (
	"context"
	"testing"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/harness"
)

// TestSubgroupsConditionOnTheSelectedAttribute pins that Alg. 2 conditions on
// the attribute MCIMR selected, not on another candidate of the same name. On
// Covid-19 Q3 MESA selects the input column Continent, and a knowledge-graph
// attribute is also called Continent; the two number their codes differently
// and differ in missingness on some rows.
func TestSubgroupsConditionOnTheSelectedAttribute(t *testing.T) {
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
	rep, err := s.Session(spec.Dataset).ExplainCtx(context.Background(), spec.SQL)
	if err != nil {
		t.Fatal(err)
	}
	encs, err := nexus.ExplanationEncodings(rep)
	if err != nil {
		t.Fatal(err)
	}
	shadowed := 0
	for i, attr := range rep.Explanation.Attrs {
		var own, other *core.Candidate
		for _, c := range rep.Analysis.Candidates {
			switch {
			case c.Name != attr.Name:
			case c.Origin == attr.Origin:
				own = c
			default:
				other = c
			}
		}
		if own == nil {
			t.Fatalf("selected %s (%s) is not among the candidates", attr.Name, attr.Origin)
		}
		if other == nil || attr.Origin != core.OriginInput {
			continue
		}
		shadowed++
		want, err := own.Enc()
		if err != nil {
			t.Fatal(err)
		}
		if encs[i] != want {
			t.Errorf("the search conditions on another encoding of %s than the selected input column's", attr.Name)
		}
	}
	if shadowed == 0 {
		t.Fatalf("%s selects %v: no input column that shares its name with a knowledge-graph attribute", spec.Key(), rep.Explanation.Names())
	}
}
