package stats

import (
	"errors"
	"math"
)

// LogisticModel is a fitted binary logistic regression
// P(y=1|x) = sigmoid(b0 + b1 x1 + ... + bp xp).
type LogisticModel struct {
	Coef []float64 // Coef[0] = intercept
	Iter int       // iterations used by the optimizer
}

// The gradient-descent fit of FitLogistic.
const (
	logisticMaxIter = 200
	logisticLR      = 0.5  // learning rate
	logisticTol     = 1e-6 // convergence tolerance on the gradient norm
	logisticL2      = 1e-4 // ridge penalty (keeps separation finite)
)

// FitLogistic fits a logistic regression of the binary labels y (0/1) on the
// predictor columns xs using gradient descent with internal standardization.
// Rows containing NaN in any predictor are dropped.
func FitLogistic(y []int, xs ...[]float64) (*LogisticModel, error) {
	p := len(xs)
	n0 := len(y)
	for _, x := range xs {
		if len(x) != n0 {
			return nil, errors.New("stats: logistic predictor length mismatch")
		}
	}
	rows := make([]int, 0, n0)
	for i := 0; i < n0; i++ {
		ok := true
		for j := 0; ok && j < p; j++ {
			ok = !math.IsNaN(xs[j][i])
		}
		if ok {
			rows = append(rows, i)
		}
	}
	n := len(rows)
	if n == 0 {
		return nil, errors.New("stats: logistic has no complete rows")
	}

	// Standardize predictors for optimization stability.
	mean := make([]float64, p)
	std := make([]float64, p)
	for j := 0; j < p; j++ {
		for _, i := range rows {
			mean[j] += xs[j][i]
		}
		mean[j] /= float64(n)
		for _, i := range rows {
			d := xs[j][i] - mean[j]
			std[j] += d * d
		}
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] == 0 {
			std[j] = 1
		}
	}

	w := make([]float64, p+1)
	grad := make([]float64, p+1)
	iters := 0
	for it := 0; it < logisticMaxIter; it++ {
		iters = it + 1
		for k := range grad {
			grad[k] = 0
		}
		for _, i := range rows {
			z := w[0]
			for j := 0; j < p; j++ {
				z += w[j+1] * (xs[j][i] - mean[j]) / std[j]
			}
			pr := sigmoid(z)
			d := pr - float64(y[i])
			grad[0] += d
			for j := 0; j < p; j++ {
				grad[j+1] += d * (xs[j][i] - mean[j]) / std[j]
			}
		}
		norm := 0.0
		for k := range grad {
			grad[k] /= float64(n)
			if k > 0 {
				grad[k] += logisticL2 * w[k]
			}
			norm += grad[k] * grad[k]
			w[k] -= logisticLR * grad[k]
		}
		if math.Sqrt(norm) < logisticTol {
			break
		}
	}

	// De-standardize back to raw coefficients.
	coef := make([]float64, p+1)
	coef[0] = w[0]
	for j := 0; j < p; j++ {
		coef[j+1] = w[j+1] / std[j]
		coef[0] -= w[j+1] * mean[j] / std[j]
	}
	return &LogisticModel{Coef: coef, Iter: iters}, nil
}

// Predict returns P(y=1 | x) for a single observation; x has one value per
// predictor (no intercept term). NaN predictors contribute zero.
func (m *LogisticModel) Predict(x ...float64) float64 {
	z := m.Coef[0]
	for j, v := range x {
		if j+1 < len(m.Coef) && !math.IsNaN(v) {
			z += m.Coef[j+1] * v
		}
	}
	return sigmoid(z)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
