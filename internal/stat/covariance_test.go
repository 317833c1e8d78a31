package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestCovarianceMatrixKnown(t *testing.T) {
	// Two perfectly correlated dimensions.
	data := matrix.NewFromRows([][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
	})
	cov, err := CovarianceMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov.At(0, 0)-1.25) > 1e-12 {
		t.Errorf("var(x) = %v, want 1.25", cov.At(0, 0))
	}
	if math.Abs(cov.At(1, 1)-5) > 1e-12 {
		t.Errorf("var(y) = %v, want 5", cov.At(1, 1))
	}
	if math.Abs(cov.At(0, 1)-2.5) > 1e-12 {
		t.Errorf("cov(x,y) = %v, want 2.5", cov.At(0, 1))
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Error("covariance not symmetric")
	}
}

func TestCovarianceMatrixTooFew(t *testing.T) {
	if _, err := CovarianceMatrix(matrix.New(3, 1)); err == nil {
		t.Fatal("single record accepted")
	}
}

func TestPropCovariancePSD(t *testing.T) {
	// A covariance matrix is positive semi-definite: all eigenvalues ≥ 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		n := d + 2 + rng.Intn(30)
		data := matrix.RandomGaussian(rng, d, n, 2)
		cov, err := CovarianceMatrix(data)
		if err != nil {
			return false
		}
		vals, _, err := matrix.EigenSym(cov)
		if err != nil {
			return false
		}
		for _, v := range vals {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropRotationPreservesTotalVariance(t *testing.T) {
	// trace(cov(QX)) == trace(cov(X)) for orthogonal Q — the variance-
	// preservation property geometric perturbation relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		x := matrix.RandomGaussian(rng, d, 40, 1.5)
		q := matrix.RandomOrthogonal(rng, d)
		covX, err := CovarianceMatrix(x)
		if err != nil {
			return false
		}
		covQX, err := CovarianceMatrix(q.Mul(x))
		if err != nil {
			return false
		}
		var trX, trQX float64
		for i := 0; i < d; i++ {
			trX += covX.At(i, i)
			trQX += covQX.At(i, i)
		}
		return math.Abs(trX-trQX) < 1e-8*math.Max(1, trX)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
