package stats

import "math"

// PartialCorr returns the linear partial correlation of x and y given the
// control variables: the Pearson correlation of the OLS residuals of
// x ~ controls and y ~ controls. This is the regression-based partial-
// correlation measure the paper discusses (§2.2) as an alternative to
// conditional mutual information — sensitive only to linear relationships,
// which is why MESA uses CMI instead. Rows with NaN in any involved series
// are excluded pairwise. NaN when undefined.
func PartialCorr(x, y []float64, controls ...[]float64) float64 {
	if len(controls) == 0 {
		return Pearson(x, y)
	}
	rx, ok1 := olsResiduals(x, controls)
	ry, ok2 := olsResiduals(y, controls)
	if !ok1 || !ok2 {
		return math.NaN()
	}
	return Pearson(rx, ry)
}

// olsResiduals regresses v on the controls and returns per-row residuals
// (NaN where any input was NaN).
func olsResiduals(v []float64, controls [][]float64) ([]float64, bool) {
	fit, err := OLS(v, controls...)
	if err != nil {
		return nil, false
	}
	out := make([]float64, len(v))
	for i := range v {
		if math.IsNaN(v[i]) {
			out[i] = math.NaN()
			continue
		}
		pred := fit.Coef[0]
		bad := false
		for j, c := range controls {
			if math.IsNaN(c[i]) {
				bad = true
				break
			}
			pred += fit.Coef[j+1] * c[i]
		}
		if bad {
			out[i] = math.NaN()
		} else {
			out[i] = v[i] - pred
		}
	}
	return out, true
}
