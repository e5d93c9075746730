package infotheory

import (
	"testing"
	"testing/quick"

	"nexus/internal/bins"
	"nexus/internal/stats"
)

func TestScreenAllMatchesUnfused(t *testing.T) {
	// The fused single-pass kernel must agree with the three unfused
	// estimators it replaces — bit-identically, not approximately: the
	// online prune's threshold verdicts must not flip when the fused path
	// is swapped in.
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 100 + rng.Intn(400)
		o := randVar(rng, n, 4, 0.1)
		tv := randVar(rng, n, 5, 0.1)
		e := randVar(rng, n, 3, 0.1)
		var w []float64
		if seed%2 == 0 {
			w = make([]float64, n)
			for i := range w {
				w[i] = 0.5 + rng.Float64()
			}
		}
		sc := ScreenAll(o, tv, e, Weights{W: w})
		hO, hT := sc.FDEntropies()
		_, wantHO, wantHT := Screen(o, tv, e, w)
		if hO != wantHO || hT != wantHT {
			return false
		}
		for _, thr := range []float64{0.001, 0.02, 0.1, 0.5} {
			if sc.MarginalIndependent(thr) != CondIndependent(o, e, nil, Weights{W: w}, thr) {
				return false
			}
			if sc.CondIndependentGivenT(thr) != CondIndependent(o, e, []Var{tv}, Weights{W: w}, thr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScreenAllFallbackPath(t *testing.T) {
	// Degenerate cardinalities must route through the unfused fallback and
	// still agree with the direct estimators.
	rng := stats.NewRNG(3)
	n := 200
	o := randVar(rng, n, 4, 0.1)
	tv := randVar(rng, n, 3, 0.1)
	e := &bins.Encoded{Name: "deg", Card: 0, Codes: make([]int32, n)}
	sc := ScreenAll(o, tv, e, Weights{})
	hO, hT := sc.FDEntropies()
	_, wantHO, wantHT := Screen(o, tv, e, nil)
	if hO != wantHO || hT != wantHT {
		t.Fatalf("fallback FDEntropies = (%v,%v), want (%v,%v)", hO, hT, wantHO, wantHT)
	}
	if sc.MarginalIndependent(0.02) != CondIndependent(o, e, nil, Weights{}, 0.02) {
		t.Fatal("fallback marginal verdict disagrees")
	}
	if sc.CondIndependentGivenT(0.02) != CondIndependent(o, e, []Var{tv}, Weights{}, 0.02) {
		t.Fatal("fallback conditional verdict disagrees")
	}
}

func TestJoinVarsMatchesSet(t *testing.T) {
	// Conditioning on the pre-joined composite must equal conditioning on
	// the set — bit-identically — and the incremental join must assign the
	// same codes as the flat join (product indexing identity).
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 100 + rng.Intn(300)
		x := randVar(rng, n, 4, 0.1)
		y := randVar(rng, n, 4, 0.1)
		g1 := randVar(rng, n, 3, 0.1)
		g2 := randVar(rng, n, 4, 0.1)
		g3 := randVar(rng, n, 2, 0.1)
		j := JoinVars("j", g1, g2, g3)
		if CondMutualInfo(x, y, []Var{j}, Weights{}) != CondMutualInfo(x, y, []Var{g1, g2, g3}, Weights{}) {
			return false
		}
		inc := JoinVars("j", JoinVars("j", g1, g2), g3)
		if inc.Card != j.Card {
			return false
		}
		for i := range inc.Codes {
			if inc.Codes[i] != j.Codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinVarsDegenerate(t *testing.T) {
	if JoinVars("x") != nil {
		t.Fatal("empty join should be nil (no conditioning)")
	}
	v := randVar(stats.NewRNG(1), 50, 3, 0)
	if JoinVars("x", v) != v {
		t.Fatal("single-variable join must pass the variable through")
	}
}
