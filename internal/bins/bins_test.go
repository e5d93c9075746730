package bins

import (
	"math"
	"testing"
	"testing/quick"

	"nexus/internal/stats"
	"nexus/internal/table"
)

func TestEncodeString(t *testing.T) {
	c := table.NewStringColumn("x", []string{"a", "b", "a", "", "c"})
	e, err := Encode(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 3 {
		t.Fatalf("card = %d, want 3", e.Card)
	}
	if e.Codes[0] != e.Codes[2] {
		t.Fatal("same value should share code")
	}
	if e.Codes[3] != Missing {
		t.Fatal("null should be Missing")
	}
	if e.Labels[e.Codes[0]] != "a" {
		t.Fatalf("label = %q", e.Labels[e.Codes[0]])
	}
}

func TestEncodeBool(t *testing.T) {
	c := table.NewColumn("b", table.Bool)
	for _, v := range []bool{true, false, true} {
		c.AppendBool(v)
	}
	e, err := Encode(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 2 || e.Codes[0] != 1 || e.Codes[1] != 0 {
		t.Fatalf("bool codes = %v", e.Codes)
	}
}

func TestEncodeNumericFewDistinct(t *testing.T) {
	c := table.NewFloatColumn("x", []float64{1, 2, 1, 3, 2, math.NaN()})
	e, err := Encode(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 3 {
		t.Fatalf("card = %d, want 3 (one code per value)", e.Card)
	}
	if e.Codes[0] != e.Codes[2] {
		t.Fatal("equal values should share code")
	}
	if e.Codes[5] != Missing {
		t.Fatal("NaN should be Missing")
	}
}

func TestEncodeNumericEqualFrequency(t *testing.T) {
	rng := stats.NewRNG(5)
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.Norm()
	}
	c := table.NewFloatColumn("x", vals)
	e, err := Encode(c, Options{Bins: 8, Strategy: EqualFrequency})
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 8 {
		t.Fatalf("card = %d, want 8", e.Card)
	}
	counts := make([]int, e.Card)
	for _, code := range e.Codes {
		counts[code]++
	}
	for b, cnt := range counts {
		frac := float64(cnt) / float64(len(vals))
		if frac < 0.08 || frac > 0.17 {
			t.Errorf("bin %d fraction %.3f, want ≈0.125", b, frac)
		}
	}
}

func TestEncodeNumericEqualWidth(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i) // uniform 0..99
	}
	c := table.NewFloatColumn("x", vals)
	e, err := Encode(c, Options{Bins: 4, Strategy: EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 4 {
		t.Fatalf("card = %d, want 4", e.Card)
	}
	// Monotone: codes must be non-decreasing with value.
	for i := 1; i < len(vals); i++ {
		if e.Codes[i] < e.Codes[i-1] {
			t.Fatal("codes not monotone in value")
		}
	}
}

func TestEncodeMonotoneProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 50 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Norm() * 10
		}
		c := table.NewFloatColumn("x", vals)
		e, err := Encode(c, DefaultOptions())
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if vals[i] < vals[j] && e.Codes[i] > e.Codes[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAllNull(t *testing.T) {
	c := table.NewFloatColumn("x", []float64{math.NaN(), math.NaN()})
	e, err := Encode(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 0 || e.MissingCount() != 2 {
		t.Fatalf("card=%d missing=%d", e.Card, e.MissingCount())
	}
	if e.MissingFraction() != 1 {
		t.Fatal("missing fraction should be 1")
	}
}

func TestEncodeConstantColumn(t *testing.T) {
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 7
	}
	e, err := Encode(table.NewFloatColumn("x", vals), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 1 {
		t.Fatalf("card = %d, want 1", e.Card)
	}
}

func TestGather(t *testing.T) {
	c := table.NewStringColumn("x", []string{"a", "b", "", "c"})
	e, err := Encode(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := e.Gather([]int{3, 2, 0})
	if g.Len() != 3 {
		t.Fatal("gather length")
	}
	if g.Codes[1] != Missing {
		t.Fatal("gather lost missing")
	}
	if g.Labels[g.Codes[0]] != "c" || g.Labels[g.Codes[2]] != "a" {
		t.Fatal("gather order")
	}
}

func TestCodesWithinCardProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 10 + rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			if rng.Float64() < 0.1 {
				vals[i] = math.NaN()
			} else {
				vals[i] = math.Floor(rng.Norm() * 5)
			}
		}
		e, err := Encode(table.NewFloatColumn("x", vals), DefaultOptions())
		if err != nil {
			return false
		}
		for _, code := range e.Codes {
			if code != Missing && (code < 0 || int(code) >= e.Card) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinEdgesDedup(t *testing.T) {
	// Heavily tied data can produce duplicate quantile edges; they must be
	// deduplicated so codes stay dense.
	vals := make([]float64, 1000)
	for i := range vals {
		if i < 900 {
			vals[i] = 1
		} else {
			vals[i] = float64(i)
		}
	}
	e, err := Encode(table.NewFloatColumn("x", vals), Options{Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, c := range e.Codes {
		seen[c] = true
	}
	if len(seen) > e.Card {
		t.Fatalf("more distinct codes (%d) than card (%d)", len(seen), e.Card)
	}
}
