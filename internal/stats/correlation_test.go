package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, yneg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonIndependent(t *testing.T) {
	r := NewRNG(41)
	n := 5000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Norm()
		y[i] = r.Norm()
	}
	if c := Pearson(x, y); math.Abs(c) > 0.05 {
		t.Fatalf("Pearson of independent series = %v", c)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Norm()
			y[i] = rng.Norm()
		}
		c := Pearson(x, y)
		return math.IsNaN(c) || (c >= -1-1e-9 && c <= 1+1e-9)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonNaNHandling(t *testing.T) {
	x := []float64{1, math.NaN(), 3, 4}
	y := []float64{2, 100, 6, 8}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson with NaN row = %v, want 1", r)
	}
}

func TestPearsonConstant(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(r) {
		t.Fatalf("Pearson with constant x = %v, want NaN", r)
	}
}

func TestMeanIgnoresNaN(t *testing.T) {
	if m := Mean([]float64{1, math.NaN(), 3}); math.Abs(m-2) > 1e-12 {
		t.Fatalf("Mean = %v, want 2", m)
	}
	if m := Mean([]float64{math.NaN()}); !math.IsNaN(m) {
		t.Fatalf("Mean of all-NaN = %v, want NaN", m)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if v := Variance(xs); math.Abs(v-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}
