package stats

import (
	"math"
	"testing"
)

func TestOLSExactLine(t *testing.T) {
	// y = 3 + 2x with no noise.
	x := []float64{0, 1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 + 2*v
	}
	res, err := OLS(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coef[0]-3) > 1e-9 || math.Abs(res.Coef[1]-2) > 1e-9 {
		t.Fatalf("coef = %v, want [3 2]", res.Coef)
	}
	if math.Abs(res.R2-1) > 1e-9 {
		t.Fatalf("R2 = %v, want 1", res.R2)
	}
}

func TestOLSTwoPredictors(t *testing.T) {
	r := NewRNG(4)
	n := 500
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = r.Norm()
		x2[i] = r.Norm()
		y[i] = 1 + 0.5*x1[i] - 2*x2[i] + 0.1*r.Norm()
	}
	res, err := OLS(y, x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, -2}
	for i, w := range want {
		if math.Abs(res.Coef[i]-w) > 0.05 {
			t.Errorf("coef[%d] = %.3f, want %.3f", i, res.Coef[i], w)
		}
	}
	// Real predictors should be highly significant.
	if res.PValue[1] > 1e-6 || res.PValue[2] > 1e-6 {
		t.Errorf("p-values for true predictors too large: %v", res.PValue)
	}
}

func TestOLSIrrelevantPredictorInsignificant(t *testing.T) {
	r := NewRNG(17)
	n := 300
	x := make([]float64, n)
	noise := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Norm()
		noise[i] = r.Norm()
		y[i] = 2*x[i] + r.Norm()
	}
	res, err := OLS(y, x, noise)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue[2] < 0.01 {
		t.Errorf("irrelevant predictor p = %v, want > 0.01", res.PValue[2])
	}
}

func TestOLSDropsNaNRows(t *testing.T) {
	x := []float64{0, 1, 2, math.NaN(), 4, 5}
	y := []float64{3, 5, 7, 100, 11, 13}
	res, err := OLS(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 5 {
		t.Fatalf("N = %d, want 5", res.N)
	}
	if math.Abs(res.Coef[1]-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", res.Coef[1])
	}
}

func TestOLSSingular(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1}
	y := []float64{1, 2, 3, 4, 5}
	// Constant predictor duplicates the intercept column.
	if _, err := OLS(y, x); err == nil {
		t.Fatal("expected error for singular design")
	}
}

func TestOLSTooFewRows(t *testing.T) {
	if _, err := OLS([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for n <= params")
	}
}

func TestStudentTSF(t *testing.T) {
	// Known values: P(T>0) = 0.5 for any df.
	if v := studentTSF(0, 10); math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("studentTSF(0,10) = %v", v)
	}
	// Large t should be tiny.
	if v := studentTSF(10, 30); v > 1e-6 {
		t.Fatalf("studentTSF(10,30) = %v, want ~0", v)
	}
	// Monotone decreasing in t.
	prev := 1.0
	for _, tt := range []float64{0.5, 1, 2, 3, 5} {
		v := studentTSF(tt, 8)
		if v >= prev {
			t.Fatalf("studentTSF not decreasing at t=%v", tt)
		}
		prev = v
	}
	// Compare against a tabulated value: t=2.228, df=10 → one-sided 0.025.
	if v := studentTSF(2.228, 10); math.Abs(v-0.025) > 0.001 {
		t.Fatalf("studentTSF(2.228,10) = %v, want ≈0.025", v)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("regIncBeta boundary values wrong")
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.33, 0.5, 0.9} {
		if v := regIncBeta(1, 1, x); math.Abs(v-x) > 1e-9 {
			t.Fatalf("regIncBeta(1,1,%v) = %v", x, v)
		}
	}
}

func TestSolveAndInvert(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	inv, err := invert(a)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 → A⁻¹·b = (1, 3).
	x := []float64{inv[0][0]*b[0] + inv[0][1]*b[1], inv[1][0]*b[0] + inv[1][1]*b[1]}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("A⁻¹·b = %v, want [1 3]", x)
	}
	// A · A⁻¹ = I.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sum := 0.0
			for k := 0; k < 2; k++ {
				sum += a[i][k] * inv[k][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(sum-want) > 1e-9 {
				t.Fatalf("A·A⁻¹[%d][%d] = %v", i, j, sum)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	if _, err := invert([][]float64{{1, 2}, {2, 4}}); err == nil {
		t.Fatal("expected singular error")
	}
}
