package core

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"nexus/internal/bins"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// randomProblem builds a random-but-structured explanation problem: some
// candidates drive (T, O), some are noise, sizes and cardinalities vary.
func randomProblem(seed uint64) (t, o *bins.Encoded, cands []*Candidate) {
	rng := stats.NewRNG(seed)
	n := 1000 + rng.Intn(3000)
	nConf := 1 + rng.Intn(3)
	nNoise := rng.Intn(5)

	conf := make([][]int, nConf)
	for j := range conf {
		conf[j] = make([]int, n)
		card := 2 + rng.Intn(4)
		for i := range conf[j] {
			conf[j][i] = rng.Intn(card)
		}
	}
	tv := make([]string, n)
	ov := make([]string, n)
	for i := 0; i < n; i++ {
		tc, oc := 0, 0
		for j := range conf {
			tc = tc*5 + conf[j][i]
			oc += conf[j][i]
		}
		if rng.Float64() < 0.2 {
			tc = rng.Intn(16)
		}
		if rng.Float64() < 0.2 {
			oc = rng.Intn(10)
		}
		tv[i] = fmt.Sprintf("t%d", tc%16)
		ov[i] = fmt.Sprintf("o%d", oc)
	}
	mk := func(name string, vals []string) *bins.Encoded {
		e, _ := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		return e
	}
	t, o = mk("T", tv), mk("O", ov)
	for j := range conf {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("c%d", conf[j][i])
		}
		cands = append(cands, FromEncoded(mk(fmt.Sprintf("Conf%d", j), vals), OriginKG))
	}
	for j := 0; j < nNoise; j++ {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("n%d", rng.Intn(4))
		}
		cands = append(cands, FromEncoded(mk(fmt.Sprintf("Noise%d", j), vals), OriginKG))
	}
	return t, o, cands
}

// TestExplainInvariants checks structural invariants of Explain over random
// problems: bounded size, members drawn from the candidate pool, no
// duplicates, non-negative scores, score never above the base, and
// responsibilities summing to 1 for multi-attribute explanations.
func TestExplainInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		tt, oo, cands := randomProblem(seed)
		opts := DefaultOptions()
		opts.K = 3
		opts.Seed = seed
		ex, err := Explain(context.Background(), tt, oo, cands, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(ex.Attrs) > opts.K {
			return false
		}
		names := map[string]bool{}
		for _, c := range cands {
			names[c.Name] = true
		}
		seen := map[string]bool{}
		respSum := 0.0
		for _, a := range ex.Attrs {
			if !names[a.Name] || seen[a.Name] {
				return false
			}
			seen[a.Name] = true
			respSum += a.Responsibility
		}
		if ex.Score < 0 || ex.BaseScore < 0 {
			return false
		}
		if len(ex.Attrs) > 0 && ex.Score > ex.BaseScore+1e-9 {
			return false
		}
		if len(ex.Attrs) >= 1 && (respSum < 0.99 || respSum > 1.01) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestExplainDeterministic: same inputs and seed → identical output.
func TestExplainDeterministic(t *testing.T) {
	tt, oo, cands := randomProblem(77)
	opts := DefaultOptions()
	opts.Seed = 5
	a, err := Explain(context.Background(), tt, oo, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explain(context.Background(), tt, oo, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Attrs), len(b.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i].Name != b.Attrs[i].Name {
			t.Fatalf("attr %d differs: %s vs %s", i, a.Attrs[i].Name, b.Attrs[i].Name)
		}
	}
	if a.Score != b.Score {
		t.Fatalf("scores differ: %v vs %v", a.Score, b.Score)
	}
}

// TestExplainMonotoneInK: the joint score with a larger K bound is never
// worse (MCIMR only adds score-reducing attributes).
func TestExplainMonotoneInK(t *testing.T) {
	tt, oo, cands := randomProblem(123)
	prev := -1.0
	for _, k := range []int{1, 2, 3, 5} {
		opts := DefaultOptions()
		opts.K = k
		opts.Seed = 9
		ex, err := Explain(context.Background(), tt, oo, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && ex.Score > prev+1e-9 {
			t.Fatalf("score %v at K=%d worse than %v at smaller K", ex.Score, k, prev)
		}
		prev = ex.Score
	}
}

// TestMCIMRFixedKSelectsExactlyK with stopping disabled and enough
// candidates, the fixed-k mode fills the budget.
func TestMCIMRFixedKSelectsExactlyK(t *testing.T) {
	tt, oo, cands := randomProblem(55)
	if len(cands) < 3 {
		t.Skip("draw produced too few candidates")
	}
	opts := DefaultOptions()
	opts.K = 3
	opts.DisableStopping = true
	sel, err := MCIMRCtx(context.Background(), tt, oo, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Attrs) != 3 {
		t.Fatalf("fixed-k selected %d, want 3", len(sel.Attrs))
	}
}
