package nexus

import (
	"context"
	"sort"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// permuteObserved is the entity-level null model's shuffle as kgCandidate
// calls it: core.ShuffleObserved over a bare code vector.
func permuteObserved(codes []int32, rng *stats.RNG) []int32 {
	return core.ShuffleObserved(&bins.Encoded{Codes: codes}, rng).Codes
}

func TestAdaptiveBinsBoundaries(t *testing.T) {
	cases := []struct {
		rows, want int
	}{
		{0, 4},
		{1, 4},
		{599, 4},
		{600, 6},
		{3999, 6},
		{4000, 8},
		{5000000, 8},
	}
	for _, c := range cases {
		if got := adaptiveBins(c.rows); got != c.want {
			t.Errorf("adaptiveBins(%d) = %d, want %d", c.rows, got, c.want)
		}
	}
}

func TestPermuteObservedPreservesMissingness(t *testing.T) {
	codes := []int32{2, bins.Missing, 0, 1, bins.Missing, 3, 1, 0, bins.Missing, 2}
	rng := stats.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		out := permuteObserved(codes, rng)
		if len(out) != len(codes) {
			t.Fatalf("length changed: %d != %d", len(out), len(codes))
		}
		var origObs, permObs []int32
		for i := range codes {
			if (codes[i] == bins.Missing) != (out[i] == bins.Missing) {
				t.Fatalf("trial %d: missingness mask changed at %d: in=%d out=%d", trial, i, codes[i], out[i])
			}
			if codes[i] != bins.Missing {
				origObs = append(origObs, codes[i])
				permObs = append(permObs, out[i])
			}
		}
		sort.Slice(origObs, func(a, b int) bool { return origObs[a] < origObs[b] })
		sort.Slice(permObs, func(a, b int) bool { return permObs[a] < permObs[b] })
		for i := range origObs {
			if origObs[i] != permObs[i] {
				t.Fatalf("trial %d: observed multiset changed: %v vs %v", trial, origObs, permObs)
			}
		}
	}
	// The input must not be mutated.
	want := []int32{2, bins.Missing, 0, 1, bins.Missing, 3, 1, 0, bins.Missing, 2}
	for i := range codes {
		if codes[i] != want[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestPermuteObservedShuffles(t *testing.T) {
	// With 60 distinct observed values the identity permutation is
	// vanishingly unlikely; catch a permuteObserved that never moves data.
	codes := make([]int32, 60)
	for i := range codes {
		codes[i] = int32(i)
	}
	out := permuteObserved(codes, stats.NewRNG(3))
	same := 0
	for i := range codes {
		if out[i] == codes[i] {
			same++
		}
	}
	if same == len(codes) {
		t.Fatal("permuteObserved returned the identity permutation on 60 values")
	}
}

func TestPermuteObservedPreservesPattern(t *testing.T) {
	codes := []int32{0, bins.Missing, 1, 2, bins.Missing, 0}
	out := permuteObserved(codes, stats.NewRNG(7))
	if out[1] != bins.Missing || out[4] != bins.Missing {
		t.Fatal("missing positions moved")
	}
	// Multiset of observed codes preserved.
	count := map[int32]int{}
	for i, c := range out {
		if c == bins.Missing {
			continue
		}
		count[c]++
		_ = i
	}
	if count[0] != 2 || count[1] != 1 || count[2] != 1 {
		t.Fatalf("observed multiset changed: %v", count)
	}
	// Input untouched.
	if codes[0] != 0 || codes[2] != 1 {
		t.Fatal("permuteObserved mutated input")
	}
}

// The subgroup search refines over an input column through its input
// candidate's own encoding (the same pointer Enc returns), not a second
// encoding of the column; a view column without a candidate (an excluded
// one) is encoded on its own.
func TestRefinementReusesInputCandidateEncodings(t *testing.T) {
	const n = 200
	var region, team, country []string
	salary := make([]float64, n)
	for i := range n {
		region = append(region, []string{"north", "south", "east"}[i%3])
		team = append(team, []string{"red", "blue"}[i%2])
		country = append(country, []string{"A", "B", "C", "D"}[i%4])
		salary[i] = float64(i % 7)
	}
	s := NewSession(nil, nil)
	s.RegisterTable("T", table.MustFromColumns(
		table.NewStringColumn("Country", country),
		table.NewStringColumn("Region", region),
		table.NewStringColumn("Team", team),
		table.NewFloatColumn("Salary", salary),
	))
	s.ExcludeCandidates("T", "Team")
	a, err := s.PrepareCtx(context.Background(), "SELECT Country, avg(Salary) FROM T GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := a.refinementAttrs()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*bins.Encoded{}
	for _, ra := range attrs {
		got[ra.Name] = ra.Enc
	}
	if got["Region"] == nil || got["Team"] == nil {
		t.Fatalf("refinement attributes %v, want Region and Team among them", attrs)
	}
	for name, e := range got {
		c := a.Candidate(name)
		if c == nil {
			continue
		}
		own, err := c.Enc()
		if err != nil {
			t.Fatal(err)
		}
		if e != own {
			t.Errorf("%s: refinement encoding is not the input candidate's own", name)
		}
	}
	if a.Candidate("Region") == nil || a.Candidate("Team") != nil {
		t.Fatal("want an input candidate for Region and none for the excluded Team")
	}
}
