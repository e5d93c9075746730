package stats

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system is (numerically) singular.
var ErrSingular = errors.New("stats: singular matrix")

// invert returns the inverse of the n×n matrix a (a is not modified).
func invert(a [][]float64) ([][]float64, error) {
	n := len(a)
	// Augmented Gauss-Jordan.
	aug := make([][]float64, n)
	for i := range aug {
		aug[i] = make([]float64, 2*n)
		copy(aug[i], a[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(aug[col][col])
		for row := col + 1; row < n; row++ {
			if v := math.Abs(aug[row][col]); v > best {
				best, pivot = v, row
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		inv := 1 / aug[col][col]
		for k := 0; k < 2*n; k++ {
			aug[col][k] *= inv
		}
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			f := aug[row][col]
			if f == 0 {
				continue
			}
			for k := 0; k < 2*n; k++ {
				aug[row][k] -= f * aug[col][k]
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		copy(out[i], aug[i][n:])
	}
	return out, nil
}
