package nexus_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nexus"
	"nexus/internal/harness"
	"nexus/internal/kg"
	"nexus/internal/workload"
)

// A Flights CSV opened with the generator's link columns and candidate
// exclusions (-links, -exclude) explains Flights Q1 as the generated dataset
// does: the same attributes with math.Float64bits-equal scores. Without
// -exclude the CSV op keeps the sibling measurements of the outcome as
// candidates, and at paper size explains departure delay by arrival delay.
func TestOpenCSVExcludeMatchesGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("two Flights explanations at the harness test scale")
	}
	const seed = 11
	rows := harness.TestScale().FlightsRows
	ctx := context.Background()
	explain := func(su nexus.Setup) *nexus.Report {
		t.Helper()
		sess, _, err := nexus.Open(ctx, su, nexus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.ExplainCtx(ctx, flightsQuery)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	gen := explain(nexus.Setup{Dataset: "flights", Rows: rows, Seed: seed})

	// The rows nexus.Open generates for -dataset flights (workload.ByName).
	ds := workload.Flights(kg.NewWorld(kg.WorldConfig{Seed: seed}), workload.Config{Rows: rows, Seed: seed + 3})
	path := filepath.Join(t.TempDir(), "flights.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = workload.FlightsCSV(kg.NewWorld(kg.WorldConfig{Seed: seed}), workload.Config{Rows: rows, Seed: seed + 3}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	csv := explain(nexus.Setup{CSV: path, Table: "Flights", Links: ds.LinkColumns, Exclude: ds.ExcludeCandidates, Seed: seed})

	if got, want := csv.Explanation.Names(), gen.Explanation.Names(); !slices.Equal(got, want) {
		t.Fatalf("CSV with -exclude explains by %v, the generated dataset by %v", got, want)
	}
	scores := func(r *nexus.Report) []float64 {
		s := []float64{r.Explanation.BaseScore, r.Explanation.Score}
		for _, a := range r.Explanation.Attrs {
			s = append(s, a.Relevance, a.Responsibility)
		}
		return s
	}
	for i, want := range scores(gen) {
		if got := scores(csv)[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("score %d (base, explanation, then relevance and responsibility per attribute): CSV %v, generated %v", i, got, want)
		}
	}

	// The exclusions reach the candidate set: the excluded columns that are
	// candidates of the CSV op without -exclude (all but the outcome) are
	// none with it.
	sess, _, err := nexus.Open(ctx, nexus.Setup{CSV: path, Table: "Flights", Links: ds.LinkColumns, Seed: seed}, nexus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := sess.PrepareCtx(ctx, flightsQuery)
	if err != nil {
		t.Fatal(err)
	}
	excluded := 0
	for _, name := range ds.ExcludeCandidates {
		if without.Candidate(name) == nil {
			continue
		}
		excluded++
		if csv.Analysis.Candidate(name) != nil {
			t.Errorf("%s is a candidate of the CSV op with -exclude", name)
		}
	}
	if excluded == 0 {
		t.Fatalf("none of %v is a candidate without -exclude", ds.ExcludeCandidates)
	}
}
