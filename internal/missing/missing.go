// Package missing implements the paper's principled treatment of missing
// data (§3.2): detection of selection bias in extracted attributes via
// conditional-independence tests on the missingness indicator R_E
// (Propositions 3.2/3.3), and Inverse Probability Weighting — complete-case
// analysis with per-row weights 1/P(R_E=1|x) estimated by logistic
// regression — to recover unbiased information-theoretic estimates.
//
// Mean imputation and unweighted complete-case analysis are also provided as
// the baselines the robustness experiment (Fig. 3) compares against.
package missing

import (
	"math"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// biasThreshold is the normalized-CMI threshold of the R_E dependence
// tests. Plug-in CMI estimates are biased upward on finite samples, so the
// threshold is not zero.
const biasThreshold = 0.02

// maxWeightRatio caps individual IPW weights at this multiple of the mean
// response rate, the standard guard against exploding weights.
const maxWeightRatio = 20.0

// Report describes the missingness of one candidate attribute.
type Report struct {
	Attr         string
	MissingFrac  float64
	Biased       bool     // selection bias detected (recoverability fails)
	DependsOn    []string // observed variables R_E was found dependent on
	CompleteRows int
}

// Indicator returns R_E as an encoded binary variable: 1 where the
// attribute is observed, 0 where it is missing.
func Indicator(attr *bins.Encoded) *bins.Encoded {
	codes := make([]int32, len(attr.Codes))
	for i, c := range attr.Codes {
		if c != bins.Missing {
			codes[i] = 1
		}
	}
	return &bins.Encoded{Name: "R_" + attr.Name, Codes: codes, Card: 2, Labels: []string{"missing", "observed"}}
}

// DetectBias tests the recoverability conditions for attr: complete-case
// probabilities involving E are recoverable only if the missingness
// indicator R_E is (conditionally) independent of the observed variables
// (Props 3.2/3.3). observed maps variable names (typically the outcome, the
// exposure, and other fully-observed input attributes) to their encodings.
// Dependence of R_E on any of them flags selection bias. Each test actually
// run adds one CITests to m (package obs; nil = no-op).
func DetectBias(attr *bins.Encoded, observed map[string]*bins.Encoded, m *obs.Counters) Report {
	r := Indicator(attr)
	rep := Report{
		Attr:         attr.Name,
		MissingFrac:  attr.MissingFraction(),
		CompleteRows: attr.Len() - attr.MissingCount(),
	}
	if rep.MissingFrac == 0 || rep.MissingFrac == 1 {
		return rep // nothing to test: fully observed or fully missing
	}
	for name, v := range observed {
		m.Add(obs.CITests, 1)
		if !infotheory.CondIndependent(r, v, nil, infotheory.Weights{}, biasThreshold) {
			rep.Biased = true
			rep.DependsOn = append(rep.DependsOn, name)
		}
	}
	return rep
}

// Weights computes IPW weights for the complete cases of attr:
// w_i = P(R_E=1) / P̂(R_E=1 | x_i) for observed rows and 0 for missing rows.
// The response model is a logistic regression of R_E on the predictor
// columns (the attributes of the input dataset 𝒟, per §3.2); NaN predictor
// entries are mean-imputed for the fit only. When the fit fails (e.g.
// constant predictors) uniform complete-case weights are returned.
func Weights(attr *bins.Encoded, predictors ...[]float64) []float64 {
	n := attr.Len()
	y := make([]int, n)
	observedCount := 0
	for i, c := range attr.Codes {
		if c != bins.Missing {
			y[i] = 1
			observedCount++
		}
	}
	out := make([]float64, n)
	if observedCount == 0 {
		return out
	}
	pbar := float64(observedCount) / float64(n)

	uniform := func() []float64 {
		for i := range out {
			if y[i] == 1 {
				out[i] = 1
			}
		}
		return out
	}
	if len(predictors) == 0 || observedCount == n {
		return uniform()
	}

	// Mean-impute predictor NaNs so every row gets a propensity score.
	xs := make([][]float64, len(predictors))
	for j, p := range predictors {
		m := stats.Mean(p)
		if math.IsNaN(m) {
			m = 0
		}
		col := make([]float64, n)
		for i, v := range p {
			if math.IsNaN(v) {
				col[i] = m
			} else {
				col[i] = v
			}
		}
		xs[j] = col
	}
	model, err := stats.FitLogistic(y, xs...)
	if err != nil {
		return uniform()
	}
	row := make([]float64, len(xs))
	for i := 0; i < n; i++ {
		if y[i] == 0 {
			continue
		}
		for j := range xs {
			row[j] = xs[j][i]
		}
		p := model.Predict(row...)
		w := pbar / math.Max(p, 1e-6)
		if w > maxWeightRatio {
			w = maxWeightRatio
		}
		out[i] = w
	}
	return out
}

// ImputeMean returns a copy of col with nulls replaced by the column mean
// (numeric) or the modal value (categorical). This is the naive baseline
// the paper shows degrades explanations (Fig. 3).
func ImputeMean(col *table.Column) *table.Column {
	switch col.Typ {
	case table.Float, table.Int:
		m := stats.Mean(col.Floats())
		out := table.NewColumn(col.Name, table.Float)
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				if math.IsNaN(m) {
					out.AppendNull()
				} else {
					out.AppendFloat(m)
				}
			} else {
				out.AppendFloat(col.Float(i))
			}
		}
		return out
	case table.String:
		counts := map[string]int{}
		mode, best := "", 0
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				continue
			}
			v := col.StringAt(i)
			counts[v]++
			if counts[v] > best {
				best, mode = counts[v], v
			}
		}
		out := table.NewColumn(col.Name, table.String)
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				if mode == "" {
					out.AppendNull()
				} else {
					out.AppendString(mode)
				}
			} else {
				out.AppendString(col.StringAt(i))
			}
		}
		return out
	default:
		return col
	}
}

// SampleImpute returns a copy of col with nulls replaced by values drawn
// from the observed empirical distribution — one draw of the Multiple
// Imputation scheme the paper discusses (and rejects for explanation
// workloads because of its missing-at-random assumption, §3.2).
func SampleImpute(col *table.Column, rng *stats.RNG) *table.Column {
	var observed []int
	for i := 0; i < col.Len(); i++ {
		if !col.IsNull(i) {
			observed = append(observed, i)
		}
	}
	out := table.NewColumn(col.Name, col.Typ)
	for i := 0; i < col.Len(); i++ {
		src := i
		if col.IsNull(i) {
			if len(observed) == 0 {
				out.AppendNull()
				continue
			}
			src = observed[rng.Intn(len(observed))]
		}
		switch col.Typ {
		case table.Float, table.Int:
			out.AppendFloat(col.Float(src))
		case table.String:
			out.AppendString(col.StringAt(src))
		case table.Bool:
			v, _ := col.BoolAt(src)
			out.AppendBool(v)
		}
	}
	return out
}
