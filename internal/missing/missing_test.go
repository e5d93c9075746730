package missing

import (
	"math"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
	"nexus/internal/table"
)

func encFloat(t *testing.T, name string, vals []float64) *bins.Encoded {
	t.Helper()
	e, err := bins.Encode(table.NewFloatColumn(name, vals), bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestIndicator(t *testing.T) {
	e := encFloat(t, "x", []float64{1, math.NaN(), 3})
	r := Indicator(e)
	if r.Codes[0] != 1 || r.Codes[1] != 0 || r.Codes[2] != 1 {
		t.Fatalf("indicator = %v", r.Codes)
	}
	if r.Card != 2 {
		t.Fatal("indicator card")
	}
}

// buildMCARData: E observed uniformly at random; O correlated with E.
func buildBiasData(t *testing.T, biased bool) (attr *bins.Encoded, outcome *bins.Encoded, outFloat []float64) {
	t.Helper()
	rng := stats.NewRNG(77)
	n := 4000
	e := make([]float64, n)
	o := make([]float64, n)
	for i := 0; i < n; i++ {
		e[i] = rng.Norm()
		o[i] = 2*e[i] + 0.5*rng.Norm()
	}
	// Outcome encoding uses the full (pre-deletion) values.
	outcome = encFloat(t, "O", o)
	withMissing := make([]float64, n)
	copy(withMissing, e)
	for i := 0; i < n; i++ {
		var pMiss float64
		if biased {
			// High values of E are preferentially dropped → R_E depends on
			// O through E.
			if e[i] > 0.5 {
				pMiss = 0.8
			} else {
				pMiss = 0.05
			}
		} else {
			pMiss = 0.4 // MCAR
		}
		if rng.Float64() < pMiss {
			withMissing[i] = math.NaN()
		}
	}
	return encFloat(t, "E", withMissing), outcome, o
}

func TestDetectBiasFlagsBiasedAttribute(t *testing.T) {
	attr, outcome, _ := buildBiasData(t, true)
	rep := DetectBias(attr, map[string]*bins.Encoded{"O": outcome}, nil)
	if !rep.Biased {
		t.Fatal("selection bias not detected on value-dependent missingness")
	}
	if len(rep.DependsOn) == 0 || rep.DependsOn[0] != "O" {
		t.Fatalf("DependsOn = %v", rep.DependsOn)
	}
}

func TestDetectBiasPassesMCAR(t *testing.T) {
	attr, outcome, _ := buildBiasData(t, false)
	rep := DetectBias(attr, map[string]*bins.Encoded{"O": outcome}, nil)
	if rep.Biased {
		t.Fatalf("MCAR attribute flagged as biased (DependsOn=%v)", rep.DependsOn)
	}
	if rep.MissingFrac < 0.3 || rep.MissingFrac > 0.5 {
		t.Fatalf("missing frac = %v", rep.MissingFrac)
	}
}

func TestDetectBiasFullyObserved(t *testing.T) {
	attr := encFloat(t, "x", []float64{1, 2, 3, 4})
	rep := DetectBias(attr, map[string]*bins.Encoded{"O": attr}, nil)
	if rep.Biased || rep.MissingFrac != 0 {
		t.Fatalf("fully observed attribute misreported: %+v", rep)
	}
}

func TestWeightsUniformWhenComplete(t *testing.T) {
	attr := encFloat(t, "x", []float64{1, 2, 3})
	w := Weights(attr, []float64{1, 2, 3})
	for _, v := range w {
		if v != 1 {
			t.Fatalf("weights = %v, want all 1", w)
		}
	}
}

func TestWeightsZeroOnMissingRows(t *testing.T) {
	attr := encFloat(t, "x", []float64{1, math.NaN(), 3, math.NaN()})
	w := Weights(attr, []float64{1, 2, 3, 4})
	if w[1] != 0 || w[3] != 0 {
		t.Fatalf("missing rows should have zero weight: %v", w)
	}
	if w[0] <= 0 || w[2] <= 0 {
		t.Fatalf("observed rows should have positive weight: %v", w)
	}
}

func TestWeightsNoPredictors(t *testing.T) {
	attr := encFloat(t, "x", []float64{1, math.NaN(), 3})
	w := Weights(attr)
	if w[0] != 1 || w[1] != 0 || w[2] != 1 {
		t.Fatalf("weights = %v", w)
	}
}

func TestWeightsAllMissing(t *testing.T) {
	attr := encFloat(t, "x", []float64{math.NaN(), math.NaN()})
	w := Weights(attr, []float64{1, 2})
	if w[0] != 0 || w[1] != 0 {
		t.Fatalf("weights = %v", w)
	}
}

func TestWeightsUpweightUnderrepresented(t *testing.T) {
	// Rows with large predictor value are mostly missing; surviving large
	// rows must get higher weight than small rows.
	rng := stats.NewRNG(5)
	n := 5000
	x := make([]float64, n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Norm()
		e[i] = x[i]
		pMiss := 0.05
		if x[i] > 0.5 {
			pMiss = 0.8
		}
		if rng.Float64() < pMiss {
			e[i] = math.NaN()
		}
	}
	attr, err := bins.Encode(table.NewFloatColumn("e", e), bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := Weights(attr, x)
	var hi, lo []float64
	for i := 0; i < n; i++ {
		if w[i] == 0 {
			continue
		}
		if x[i] > 0.5 {
			hi = append(hi, w[i])
		} else if x[i] < 0 {
			lo = append(lo, w[i])
		}
	}
	if len(hi) == 0 || len(lo) == 0 {
		t.Fatal("degenerate test data")
	}
	if stats.Mean(hi) <= stats.Mean(lo)*1.5 {
		t.Fatalf("mean weight hi=%.3f lo=%.3f; survivors of biased deletion must be upweighted",
			stats.Mean(hi), stats.Mean(lo))
	}
}

func TestIPWRecoversEntropyUnderBias(t *testing.T) {
	// Biased deletion distorts the E distribution; IPW weights should move
	// the weighted complete-case entropy back toward the truth.
	rng := stats.NewRNG(11)
	n := 20000
	full := make([]float64, n)
	obs := make([]float64, n)
	pred := make([]float64, n)
	for i := 0; i < n; i++ {
		full[i] = rng.Norm()
		pred[i] = full[i] + 0.2*rng.Norm() // observed proxy of E
		obs[i] = full[i]
		pMiss := 0.05
		if full[i] > 0.3 {
			pMiss = 0.85
		}
		if rng.Float64() < pMiss {
			obs[i] = math.NaN()
		}
	}
	// Shared bin edges: encode the full data, then copy codes with holes.
	fullEnc := encFloat(t, "E", full)
	obsEnc := &bins.Encoded{Name: "E", Card: fullEnc.Card, Labels: fullEnc.Labels, Codes: make([]int32, n)}
	for i := range obsEnc.Codes {
		if math.IsNaN(obs[i]) {
			obsEnc.Codes[i] = bins.Missing
		} else {
			obsEnc.Codes[i] = fullEnc.Codes[i]
		}
	}
	trueH := infotheory.Entropy(fullEnc, nil)
	ccH := infotheory.Entropy(obsEnc, nil)
	w := Weights(obsEnc, pred)
	ipwH := infotheory.Entropy(obsEnc, w)
	errCC := math.Abs(ccH - trueH)
	errIPW := math.Abs(ipwH - trueH)
	if errIPW >= errCC {
		t.Fatalf("IPW entropy error %.4f not better than complete-case %.4f (true %.4f cc %.4f ipw %.4f)",
			errIPW, errCC, trueH, ccH, ipwH)
	}
}

func TestImputeMeanNumeric(t *testing.T) {
	col := table.NewFloatColumn("x", []float64{1, math.NaN(), 3})
	out := ImputeMean(col)
	if out.NullCount() != 0 {
		t.Fatal("imputation left nulls")
	}
	if out.Float(1) != 2 {
		t.Fatalf("imputed = %v, want mean 2", out.Float(1))
	}
	if out.Float(0) != 1 || out.Float(2) != 3 {
		t.Fatal("non-null values changed")
	}
}

func TestImputeMeanCategorical(t *testing.T) {
	col := table.NewStringColumn("x", []string{"a", "", "a", "b"})
	out := ImputeMean(col)
	if out.NullCount() != 0 {
		t.Fatal("imputation left nulls")
	}
	if out.StringAt(1) != "a" {
		t.Fatalf("imputed = %q, want mode a", out.StringAt(1))
	}
}

func TestImputeMeanAllNull(t *testing.T) {
	col := table.NewFloatColumn("x", []float64{math.NaN(), math.NaN()})
	out := ImputeMean(col)
	if out.NullCount() != 2 {
		t.Fatal("all-null column should stay null")
	}
}

func TestSampleImputeFillsFromObserved(t *testing.T) {
	col := table.NewFloatColumn("x", []float64{1, math.NaN(), 3, math.NaN(), 1})
	out := SampleImpute(col, stats.NewRNG(5))
	if out.NullCount() != 0 {
		t.Fatal("sample imputation left nulls")
	}
	for i := 0; i < out.Len(); i++ {
		v := out.Float(i)
		if v != 1 && v != 3 {
			t.Fatalf("imputed value %v not from the observed support", v)
		}
	}
	// Observed entries unchanged.
	if out.Float(0) != 1 || out.Float(2) != 3 || out.Float(4) != 1 {
		t.Fatal("observed values changed")
	}
}

func TestSampleImputeAllMissing(t *testing.T) {
	col := table.NewFloatColumn("x", []float64{math.NaN(), math.NaN()})
	out := SampleImpute(col, stats.NewRNG(1))
	if out.NullCount() != 2 {
		t.Fatal("nothing to sample from; nulls must remain")
	}
}

func TestSampleImputeCategorical(t *testing.T) {
	col := table.NewStringColumn("x", []string{"a", "", "b"})
	out := SampleImpute(col, stats.NewRNG(2))
	if out.NullCount() != 0 {
		t.Fatal("categorical sample imputation left nulls")
	}
	if v := out.StringAt(1); v != "a" && v != "b" {
		t.Fatalf("imputed %q not from support", v)
	}
}
