package stat

import (
	"fmt"

	"repro/internal/matrix"
)

// CovarianceMatrix computes the d×d population covariance of data laid out
// d×N (one column per record), the orientation the perturbation pipeline
// uses throughout.
func CovarianceMatrix(data *matrix.Dense) (*matrix.Dense, error) {
	n := data.Cols()
	if n < 2 {
		return nil, fmt.Errorf("stat: covariance needs at least 2 records, got %d", n)
	}
	d := data.Rows()
	means := make([]float64, d)
	for j := 0; j < d; j++ {
		means[j] = Mean(data.Row(j))
	}
	cov := matrix.New(d, d)
	for a := 0; a < d; a++ {
		rowA := data.Row(a)
		for b := a; b < d; b++ {
			rowB := data.Row(b)
			var s float64
			for i := 0; i < n; i++ {
				s += (rowA[i] - means[a]) * (rowB[i] - means[b])
			}
			s /= float64(n)
			cov.Set(a, b, s)
			cov.Set(b, a, s)
		}
	}
	return cov, nil
}
