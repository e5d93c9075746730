package stats

import "math"

// Mean returns the arithmetic mean of xs, ignoring NaN values.
// It returns NaN when no finite values are present.
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range xs {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Variance returns the population variance of xs, ignoring NaN values.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, v := range xs {
		if !math.IsNaN(v) {
			d := v - m
			sum += d * d
			n++
		}
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient of the pairwise
// complete observations of x and y. NaN when fewer than two complete pairs
// or either variable is constant.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sx, sy, sxx, syy, sxy float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
		cnt++
	}
	if cnt < 2 {
		return math.NaN()
	}
	fn := float64(cnt)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}
