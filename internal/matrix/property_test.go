package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genMatrix draws a small matrix with bounded entries so products stay in
// well-conditioned float range.
func genMatrix(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64()*5)
		}
	}
	return m
}

// frobenius returns the square root of the sum of squared elements.
func frobenius(m *Dense) float64 {
	var s float64
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 50,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestPropTransposeProduct(t *testing.T) {
	// (AB)ᵀ == Bᵀ Aᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := genMatrix(rng, r, k)
		b := genMatrix(rng, k, c)
		return a.Mul(b).T().EqualApprox(b.T().Mul(a.T()), 1e-9)
	}
	if err := quick.Check(f, quickCfg(1)); err != nil {
		t.Error(err)
	}
}

func TestPropMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := genMatrix(rng, n, n)
		b := genMatrix(rng, n, n)
		c := genMatrix(rng, n, n)
		return a.Mul(b).Mul(c).EqualApprox(a.Mul(b.Mul(c)), 1e-6)
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Error(err)
	}
}

func TestPropAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := genMatrix(rng, r, c)
		b := genMatrix(rng, r, c)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, quickCfg(3)); err != nil {
		t.Error(err)
	}
}

func TestPropDistributive(t *testing.T) {
	// A(B + C) == AB + AC
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := genMatrix(rng, r, k)
		b := genMatrix(rng, k, c)
		cc := genMatrix(rng, k, c)
		return a.Mul(b.Add(cc)).EqualApprox(a.Mul(b).Add(a.Mul(cc)), 1e-8)
	}
	if err := quick.Check(f, quickCfg(4)); err != nil {
		t.Error(err)
	}
}

func TestPropOrthogonalPreservesNorm(t *testing.T) {
	// ‖Qx‖ == ‖x‖ — the core property making geometric perturbation
	// classifier-invariant for distance-based models.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		q := RandomOrthogonal(rng, n)
		x := make([]float64, n)
		var norm float64
		for i := range x {
			x[i] = rng.NormFloat64() * 3
			norm += x[i] * x[i]
		}
		qx := q.MulVec(x)
		var qnorm float64
		for _, v := range qx {
			qnorm += v * v
		}
		return math.Abs(math.Sqrt(norm)-math.Sqrt(qnorm)) < 1e-9
	}
	if err := quick.Check(f, quickCfg(8)); err != nil {
		t.Error(err)
	}
}

func TestPropOrthogonalPreservesPairwiseDistances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		q := RandomOrthogonal(rng, n)
		x := genMatrix(rng, n, 1)
		y := genMatrix(rng, n, 1)
		dOrig := frobenius(x.Sub(y))
		dRot := frobenius(q.Mul(x).Sub(q.Mul(y)))
		return math.Abs(dOrig-dRot) < 1e-9
	}
	if err := quick.Check(f, quickCfg(9)); err != nil {
		t.Error(err)
	}
}

func TestPropSVDSingularValuesOfOrthogonal(t *testing.T) {
	// All singular values of an orthogonal matrix are 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		q := RandomOrthogonal(rng, n)
		res, err := SVD(q)
		if err != nil {
			return false
		}
		for _, s := range res.Sigma {
			if math.Abs(s-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(10)); err != nil {
		t.Error(err)
	}
}

func TestPropEigenTraceEqualsSum(t *testing.T) {
	// trace(A) == Σλ for symmetric A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		g := genMatrix(rng, n, n)
		a := g.Add(g.T()).Scale(0.5)
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		var sum, trace float64
		for i, v := range vals {
			sum += v
			trace += a.At(i, i)
		}
		return math.Abs(sum-trace) < 1e-8*math.Max(1, math.Abs(trace))
	}
	if err := quick.Check(f, quickCfg(11)); err != nil {
		t.Error(err)
	}
}

func TestPropMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := genMatrix(rng, r, c)
		buf, err := a.MarshalBinary()
		if err != nil {
			return false
		}
		var b Dense
		if err := b.UnmarshalBinary(buf); err != nil {
			return false
		}
		return a.Equal(&b)
	}
	if err := quick.Check(f, quickCfg(12)); err != nil {
		t.Error(err)
	}
}
