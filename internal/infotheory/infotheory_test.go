package infotheory

import (
	"math"
	"testing"
	"testing/quick"

	"nexus/internal/bins"
	"nexus/internal/stats"
	"nexus/internal/table"
)

func enc(t *testing.T, name string, vals []string) Var {
	t.Helper()
	e, err := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEntropyUniform(t *testing.T) {
	// Four equally likely symbols → H = 2 bits.
	vals := []string{"a", "b", "c", "d", "a", "b", "c", "d"}
	if h := Entropy(enc(t, "x", vals), nil); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H = %v, want 2", h)
	}
}

func TestEntropyConstantIsZero(t *testing.T) {
	if h := Entropy(enc(t, "x", []string{"a", "a", "a"}), nil); h != 0 {
		t.Fatalf("H = %v, want 0", h)
	}
}

func TestEntropyBiasedCoin(t *testing.T) {
	// P = (0.25, 0.75) → H ≈ 0.811278.
	vals := []string{"h", "t", "t", "t"}
	if h := Entropy(enc(t, "x", vals), nil); math.Abs(h-0.8112781245) > 1e-9 {
		t.Fatalf("H = %v", h)
	}
}

func TestEntropySkipsMissing(t *testing.T) {
	vals := []string{"a", "b", "", "", "a", "b"}
	if h := Entropy(enc(t, "x", vals), nil); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H = %v, want 1", h)
	}
}

func TestEntropyWeighted(t *testing.T) {
	vals := []string{"a", "b"}
	// Weight 3:1 → P = (0.75, 0.25).
	h := Entropy(enc(t, "x", vals), []float64{3, 1})
	if math.Abs(h-0.8112781245) > 1e-9 {
		t.Fatalf("weighted H = %v", h)
	}
}

func TestMutualInfoIdenticalEqualsEntropy(t *testing.T) {
	vals := []string{"a", "b", "c", "a", "b", "c"}
	x := enc(t, "x", vals)
	if d := math.Abs(MutualInfo(x, x, nil) - Entropy(x, nil)); d > 1e-12 {
		t.Fatalf("I(X;X) != H(X), diff %v", d)
	}
}

func TestMutualInfoIndependent(t *testing.T) {
	// All four combinations equally likely → I = 0.
	x := enc(t, "x", []string{"a", "a", "b", "b"})
	y := enc(t, "y", []string{"0", "1", "0", "1"})
	if mi := MutualInfo(x, y, nil); mi > 1e-12 {
		t.Fatalf("I = %v, want 0", mi)
	}
}

func TestMutualInfoDeterministic(t *testing.T) {
	// Y = f(X), both uniform binary → I = 1 bit.
	x := enc(t, "x", []string{"a", "a", "b", "b"})
	y := enc(t, "y", []string{"0", "0", "1", "1"})
	if mi := MutualInfo(x, y, nil); math.Abs(mi-1) > 1e-12 {
		t.Fatalf("I = %v, want 1", mi)
	}
}

func TestCMIExplainsAwayConfounder(t *testing.T) {
	// Z drives both X and Y: X = Z, Y = Z. Then I(X;Y) = 1 but
	// I(X;Y|Z) = 0 — the core phenomenon the paper exploits.
	z := enc(t, "z", []string{"0", "0", "1", "1", "0", "0", "1", "1"})
	x := enc(t, "x", []string{"a", "a", "b", "b", "a", "a", "b", "b"})
	y := enc(t, "y", []string{"p", "p", "q", "q", "p", "p", "q", "q"})
	if mi := MutualInfo(x, y, nil); mi < 0.9 {
		t.Fatalf("marginal I = %v, want ≈1", mi)
	}
	if cmi := CondMutualInfo(x, y, []Var{z}, Weights{}); cmi > 1e-9 {
		t.Fatalf("I(X;Y|Z) = %v, want 0", cmi)
	}
}

func TestCMIConditioningOnIrrelevant(t *testing.T) {
	// Conditioning on an independent uniform Z leaves I(X;Y) unchanged.
	x := enc(t, "x", []string{"a", "a", "b", "b", "a", "a", "b", "b"})
	y := enc(t, "y", []string{"p", "p", "q", "q", "p", "p", "q", "q"})
	z := enc(t, "z", []string{"0", "1", "0", "1", "0", "1", "0", "1"})
	mi := MutualInfo(x, y, nil)
	cmi := CondMutualInfo(x, y, []Var{z}, Weights{})
	if math.Abs(mi-cmi) > 1e-9 {
		t.Fatalf("I = %v but I|Z = %v", mi, cmi)
	}
}

func TestCMINonNegativeProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.Intn(200)
		mk := func(card int) Var {
			vals := make([]string, n)
			letters := []string{"a", "b", "c", "d", "e"}
			for i := range vals {
				if rng.Float64() < 0.05 {
					vals[i] = ""
				} else {
					vals[i] = letters[rng.Intn(card)]
				}
			}
			e, _ := bins.Encode(table.NewStringColumn("v", vals), bins.DefaultOptions())
			return e
		}
		x, y, z := mk(3), mk(4), mk(2)
		return CondMutualInfo(x, y, []Var{z}, Weights{}) >= 0 && MutualInfo(x, y, nil) >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChainRuleProperty(t *testing.T) {
	// I(X;Y) = H(X) + H(Y) - H(X,Y) on complete data.
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 30 + rng.Intn(100)
		letters := []string{"a", "b", "c"}
		xv := make([]string, n)
		yv := make([]string, n)
		for i := 0; i < n; i++ {
			xv[i] = letters[rng.Intn(3)]
			if rng.Float64() < 0.5 {
				yv[i] = xv[i]
			} else {
				yv[i] = letters[rng.Intn(3)]
			}
		}
		x, _ := bins.Encode(table.NewStringColumn("x", xv), bins.DefaultOptions())
		y, _ := bins.Encode(table.NewStringColumn("y", yv), bins.DefaultOptions())
		lhs := MutualInfo(x, y, nil)
		rhs := Entropy(x, nil) + Entropy(y, nil) - JointEntropy([]Var{x, y}, nil)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCMIMultipleConditioningVars(t *testing.T) {
	// Y determined jointly by Z1 XOR Z2; conditioning on both kills I(Y;X)
	// where X = Z1 (imperfect single conditioning).
	n := 400
	rng := stats.NewRNG(9)
	z1v := make([]string, n)
	z2v := make([]string, n)
	yv := make([]string, n)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		z1v[i] = []string{"0", "1"}[a]
		z2v[i] = []string{"0", "1"}[b]
		yv[i] = []string{"0", "1"}[a^b]
	}
	z1 := enc(t, "z1", z1v)
	z2 := enc(t, "z2", z2v)
	y := enc(t, "y", yv)
	cmiBoth := CondMutualInfo(y, z1, []Var{z1, z2}, Weights{})
	if cmiBoth > 1e-9 {
		t.Fatalf("I(Y;Z1|Z1,Z2) = %v, want 0 (fully determined)", cmiBoth)
	}
	// And conditioning on z2 alone makes y depend on z1 fully.
	cmi := CondMutualInfo(y, z1, []Var{z2}, Weights{})
	if cmi < 0.9 {
		t.Fatalf("I(Y;Z1|Z2) = %v, want ≈1", cmi)
	}
}

func TestCMISkipsRowsWithMissing(t *testing.T) {
	// Missing z rows carry all the dependence; complete cases are independent.
	x := enc(t, "x", []string{"a", "b", "a", "b"})
	y := enc(t, "y", []string{"p", "q", "p", "q"})
	z := enc(t, "z", []string{"", "", "0", "0"})
	cmi := CondMutualInfo(x, y, []Var{z}, Weights{})
	// Complete cases: rows 2,3 → contingency (a,p),(b,q) given z=0 → I = 1.
	if math.Abs(cmi-1) > 1e-9 {
		t.Fatalf("CMI over complete cases = %v, want 1", cmi)
	}
}

func TestWeightedCMIMatchesReplication(t *testing.T) {
	// Integer weights should equal row replication.
	xv := []string{"a", "b", "a", "b"}
	yv := []string{"p", "p", "q", "q"}
	w := []float64{3, 1, 1, 2}
	x := enc(t, "x", xv)
	y := enc(t, "y", yv)
	got := MutualInfo(x, y, w)
	var xr, yr []string
	for i, wt := range w {
		for k := 0; k < int(wt); k++ {
			xr = append(xr, xv[i])
			yr = append(yr, yv[i])
		}
	}
	want := MutualInfo(enc(t, "x", xr), enc(t, "y", yr), nil)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("weighted = %v, replicated = %v", got, want)
	}
}

func TestDenseIDs(t *testing.T) {
	a := enc(t, "a", []string{"x", "y", "x", ""})
	b := enc(t, "b", []string{"0", "0", "1", "1"})
	ids, card := DenseIDs([]Var{a, b}, 4)
	if card != 4 {
		t.Fatalf("card = %d, want 4", card)
	}
	if ids[3] != -1 {
		t.Fatal("missing row should map to -1")
	}
	if ids[0] == ids[2] {
		t.Fatal("distinct combos share an id")
	}
	// Zero vars: all id 0.
	ids0, card0 := DenseIDs(nil, 3)
	if card0 != 1 || ids0[0] != 0 || ids0[2] != 0 {
		t.Fatal("empty conditioning ids wrong")
	}
}

func TestDenseIDsSparseFallback(t *testing.T) {
	// Force the map fallback with many high-cardinality vars.
	n := 100
	rng := stats.NewRNG(3)
	vars := make([]Var, 5)
	for j := range vars {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = string(rune('a' + rng.Intn(26)))
		}
		e, _ := bins.Encode(table.NewStringColumn("v", vals), bins.DefaultOptions())
		// Inflate card to force overflow of the product path.
		e.Card = 1 << 10
		vars[j] = e
	}
	ids, card := DenseIDs(vars, n)
	if card <= 0 || card > n {
		t.Fatalf("fallback card = %d", card)
	}
	seen := map[int32]bool{}
	for _, id := range ids {
		if id >= 0 {
			seen[id] = true
		}
	}
	if len(seen) != card {
		t.Fatalf("card %d != observed %d", card, len(seen))
	}
}

func TestCondIndependent(t *testing.T) {
	z := enc(t, "z", []string{"0", "0", "1", "1", "0", "0", "1", "1"})
	x := enc(t, "x", []string{"a", "a", "b", "b", "a", "a", "b", "b"})
	y := enc(t, "y", []string{"p", "p", "q", "q", "p", "p", "q", "q"})
	if !CondIndependent(x, y, []Var{z}, Weights{}, 0.05) {
		t.Fatal("X ⊥ Y | Z should hold")
	}
	if CondIndependent(x, y, nil, Weights{}, 0.05) {
		t.Fatal("X ⊥ Y should not hold marginally")
	}
}

func TestNoCompleteCases(t *testing.T) {
	x := enc(t, "x", []string{"", ""})
	y := enc(t, "y", []string{"a", "b"})
	if v := MutualInfo(x, y, nil); v != 0 {
		t.Fatalf("MI with no complete cases = %v, want 0", v)
	}
	if v := Entropy(x, nil); v != 0 {
		t.Fatalf("H with no complete cases = %v, want 0", v)
	}
}
