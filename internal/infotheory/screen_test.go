package infotheory

import (
	"math"
	"testing"
	"testing/quick"

	"nexus/internal/bins"
	"nexus/internal/stats"
	"nexus/internal/table"
)

func randVar(rng *stats.RNG, n, card int, missFrac float64) Var {
	vals := make([]string, n)
	letters := "abcdefgh"
	for i := range vals {
		if rng.Float64() < missFrac {
			vals[i] = ""
		} else {
			vals[i] = string(letters[rng.Intn(card)])
		}
	}
	e, _ := bins.Encode(table.NewStringColumn("v", vals), bins.DefaultOptions())
	return e
}

func TestScreenMatchesComponents(t *testing.T) {
	// Screen must agree with the individually-computed quantities on the
	// same complete-case population.
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 100 + rng.Intn(400)
		o := randVar(rng, n, 4, 0.1)
		tv := randVar(rng, n, 5, 0.1)
		e := randVar(rng, n, 3, 0.1)
		rel, hO, hT := Screen(o, tv, e, nil)
		if math.Abs(rel-CondMutualInfo(o, tv, []Var{e}, Weights{})) > 1e-9 {
			return false
		}
		// H(O|E) over the triple-complete population: mask rows where any
		// of the three is missing, then compute conditional entropy.
		w := maskedWeights([]Var{o, tv, e}, nil)
		wantHO := JointEntropy([]Var{o, e}, w) - JointEntropy([]Var{e}, w)
		wantHT := JointEntropy([]Var{tv, e}, w) - JointEntropy([]Var{e}, w)
		return math.Abs(hO-wantHO) < 1e-9 && math.Abs(hT-wantHT) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDebiasedLessThanRaw(t *testing.T) {
	rng := stats.NewRNG(8)
	n := 500
	x := randVar(rng, n, 4, 0)
	y := randVar(rng, n, 4, 0)
	raw := CondMutualInfo(x, y, nil, Weights{})
	deb := CondMutualInfoDebiased(x, y, nil, nil)
	if deb > raw {
		t.Fatalf("debiased %v > raw %v", deb, raw)
	}
	if deb < 0 {
		t.Fatalf("debiased negative: %v", deb)
	}
}

func TestDebiasedKillsIndependentNoise(t *testing.T) {
	// Over many independent draws the debiased CMI should be ≈0 most of
	// the time while the raw plug-in stays strictly positive.
	rng := stats.NewRNG(13)
	zeroes := 0
	const trials = 20
	for tr := 0; tr < trials; tr++ {
		n := 400
		x := randVar(rng, n, 4, 0)
		y := randVar(rng, n, 4, 0)
		if CondMutualInfo(x, y, nil, Weights{}) <= 0 {
			t.Fatal("raw plug-in unexpectedly zero")
		}
		if CondMutualInfoDebiased(x, y, nil, nil) == 0 {
			zeroes++
		}
	}
	if zeroes < trials/2 {
		t.Fatalf("debiasing zeroed only %d/%d independent pairs", zeroes, trials)
	}
}

func TestScreenFDShape(t *testing.T) {
	// E ⇒ T (copy): H(T|E) must be ≈0 while H(O|E) stays large.
	n := 400
	rng := stats.NewRNG(17)
	tVals := make([]string, n)
	oVals := make([]string, n)
	for i := range tVals {
		tVals[i] = string(rune('a' + rng.Intn(5)))
		oVals[i] = string(rune('p' + rng.Intn(4)))
	}
	tv, _ := bins.Encode(table.NewStringColumn("T", tVals), bins.DefaultOptions())
	o, _ := bins.Encode(table.NewStringColumn("O", oVals), bins.DefaultOptions())
	e := &bins.Encoded{Name: "E", Card: tv.Card, Codes: append([]int32(nil), tv.Codes...)}
	rel, hO, hT := Screen(o, tv, e, nil)
	if hT > 1e-9 {
		t.Fatalf("H(T|E)=%v for E≡T", hT)
	}
	if rel > 1e-9 {
		t.Fatalf("I(O;T|E)=%v for E≡T (Lemma A.2 expects 0)", rel)
	}
	if hO < 1 {
		t.Fatalf("H(O|E)=%v unexpectedly small", hO)
	}
}
