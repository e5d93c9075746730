package stats

import (
	"math"
	"testing"
)

// confounded generates x and y both driven by z (plus noise): marginally
// correlated, conditionally (given z) independent.
func confounded(seed uint64, n int) (x, y, z []float64) {
	rng := NewRNG(seed)
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i := 0; i < n; i++ {
		z[i] = rng.Norm()
		x[i] = 2*z[i] + 0.5*rng.Norm()
		y[i] = -1.5*z[i] + 0.5*rng.Norm()
	}
	return
}

func TestPartialCorrExplainsAwayConfounder(t *testing.T) {
	x, y, z := confounded(1, 5000)
	marginal := Pearson(x, y)
	if marginal > -0.7 {
		t.Fatalf("marginal corr = %.3f, expected strongly negative", marginal)
	}
	partial := PartialCorr(x, y, z)
	if math.Abs(partial) > 0.05 {
		t.Fatalf("partial corr = %.3f, want ≈0 after controlling for z", partial)
	}
}

func TestPartialCorrNoControlsIsPearson(t *testing.T) {
	x, y, _ := confounded(2, 500)
	if d := math.Abs(PartialCorr(x, y) - Pearson(x, y)); d > 1e-12 {
		t.Fatalf("no-controls partial differs from Pearson by %v", d)
	}
}

func TestPartialCorrDirectEffectSurvives(t *testing.T) {
	// y depends on both z and x directly → partial correlation stays away
	// from zero.
	rng := NewRNG(3)
	n := 5000
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		z[i] = rng.Norm()
		x[i] = z[i] + 0.7*rng.Norm()
		y[i] = z[i] + 0.8*x[i] + 0.7*rng.Norm()
	}
	if p := PartialCorr(x, y, z); p < 0.4 {
		t.Fatalf("partial corr = %.3f, direct effect should survive controlling", p)
	}
}

func TestPartialCorrMultipleControls(t *testing.T) {
	rng := NewRNG(4)
	n := 4000
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		z1[i] = rng.Norm()
		z2[i] = rng.Norm()
		x[i] = z1[i] + z2[i] + 0.4*rng.Norm()
		y[i] = z1[i] - z2[i] + 0.4*rng.Norm()
	}
	// Controlling for only one confounder leaves dependence; both kill it.
	if p := math.Abs(PartialCorr(x, y, z1)); p < 0.3 {
		t.Fatalf("partial given z1 only = %.3f, want substantial", p)
	}
	if p := math.Abs(PartialCorr(x, y, z1, z2)); p > 0.05 {
		t.Fatalf("partial given both = %.3f, want ≈0", p)
	}
}

func TestPartialCorrNaNRows(t *testing.T) {
	x, y, z := confounded(5, 1000)
	x[3] = math.NaN()
	z[17] = math.NaN()
	p := PartialCorr(x, y, z)
	if math.IsNaN(p) {
		t.Fatal("NaN rows should be excluded, not propagate")
	}
	if math.Abs(p) > 0.06 {
		t.Fatalf("partial corr = %.3f with NaN rows", p)
	}
}

func TestPartialCorrDegenerateControls(t *testing.T) {
	x, y, _ := confounded(7, 100)
	constant := make([]float64, 100)
	// A constant control makes the design singular; NaN is the contract.
	if p := PartialCorr(x, y, constant); !math.IsNaN(p) {
		t.Fatalf("constant control gave %v, want NaN", p)
	}
}
