package perturb

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func testData(rng *rand.Rand, d, n int) *matrix.Dense {
	return matrix.RandomUniform(rng, d, n, 0, 1)
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := matrix.RandomOrthogonal(rng, 3)
	tvec := []float64{0.1, -0.2, 0.3}

	if _, err := New(r, tvec, 0.05); err != nil {
		t.Fatalf("valid perturbation rejected: %v", err)
	}
	if _, err := New(r, tvec[:2], 0.05); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("short translation err = %v", err)
	}
	if _, err := New(r, tvec, -1); !errors.Is(err, ErrBadNoise) {
		t.Errorf("negative sigma err = %v", err)
	}
	if _, err := New(matrix.New(2, 3), []float64{1, 1}, 0); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("non-square err = %v", err)
	}
	notOrtho := matrix.NewFromRows([][]float64{{1, 1, 0}, {0, 1, 0}, {0, 0, 1}})
	if _, err := New(notOrtho, tvec, 0); !errors.Is(err, ErrNotOrthogonal) {
		t.Errorf("non-orthogonal err = %v", err)
	}
}

func TestNewCopiesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := matrix.RandomOrthogonal(rng, 2)
	tvec := []float64{0.5, -0.5}
	p, err := New(r, tvec, 0)
	if err != nil {
		t.Fatal(err)
	}
	tvec[0] = 99
	r.Set(0, 0, 99)
	if p.T[0] == 99 || p.R.At(0, 0) == 99 {
		t.Fatal("New aliased caller-owned inputs")
	}
}

func TestNewRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := NewRandom(rng, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 5 {
		t.Fatalf("Dim = %d, want 5", p.Dim())
	}
	if !p.R.IsOrthogonal(1e-10) {
		t.Fatal("random rotation not orthogonal")
	}
	for _, v := range p.T {
		if v < -1 || v > 1 {
			t.Fatalf("translation %v out of [-1,1]", v)
		}
	}
	if _, err := NewRandom(rng, 0, 0.1); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("d=0 err = %v", err)
	}
	if _, err := NewRandom(rng, 3, -0.1); !errors.Is(err, ErrBadNoise) {
		t.Errorf("negative sigma err = %v", err)
	}
}

func TestApplyRecoverNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, err := NewRandom(rng, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := testData(rng, 4, 30)
	y, noise, err := p.Apply(rng, x)
	if err != nil {
		t.Fatal(err)
	}
	if noise.MaxAbs() != 0 {
		t.Fatal("zero-sigma perturbation produced noise")
	}
	// R is orthogonal, so Rᵀ(Y − Ψ) recovers X.
	shifted := y.Clone()
	for i := 0; i < shifted.Rows(); i++ {
		for j := 0; j < shifted.Cols(); j++ {
			shifted.Set(i, j, shifted.At(i, j)-p.T[i])
		}
	}
	if !p.R.T().Mul(shifted).EqualApprox(x, 1e-10) {
		t.Fatal("Rᵀ(Y − Ψ) did not invert a noiseless perturbation")
	}
}

func TestApplyWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const sigma = 0.1
	p, err := NewRandom(rng, 3, sigma)
	if err != nil {
		t.Fatal(err)
	}
	x := testData(rng, 3, 500)
	y, noise, err := p.Apply(rng, x)
	if err != nil {
		t.Fatal(err)
	}
	// Y − Δ must equal the noiseless image exactly.
	clean, err := p.ApplyNoiseless(x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Sub(noise).EqualApprox(clean, 1e-10) {
		t.Fatal("Y − Δ != R·X + Ψ")
	}
}

func TestApplyDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, _ := NewRandom(rng, 3, 0)
	x := testData(rng, 4, 5)
	if _, _, err := p.Apply(rng, x); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Apply err = %v", err)
	}
	if _, err := p.ApplyNoiseless(x); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ApplyNoiseless err = %v", err)
	}
}

func TestWithoutNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, _ := NewRandom(rng, 3, 0.5)
	q := p.WithoutNoise()
	if q.NoiseSigma != 0 {
		t.Fatal("WithoutNoise kept noise")
	}
	if p.NoiseSigma != 0.5 {
		t.Fatal("WithoutNoise mutated the receiver")
	}
	if !q.R.Equal(p.R) {
		t.Fatal("WithoutNoise changed rotation")
	}
}

func TestCloneEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p, _ := NewRandom(rng, 4, 0.2)
	q := p.Clone()
	if !p.Equal(q, 1e-12) {
		t.Fatal("clone not equal")
	}
	q.T[0] += 1
	if p.Equal(q, 1e-12) {
		t.Fatal("Equal missed translation change")
	}
	if p.T[0] == q.T[0] {
		t.Fatal("clone aliased translation")
	}
	r, _ := NewRandom(rng, 4, 0.3)
	if p.Equal(r, 1e-12) {
		t.Fatal("Equal missed sigma change")
	}
	s, _ := NewRandom(rng, 5, 0.2)
	if p.Equal(s, 1e-12) {
		t.Fatal("Equal missed dim change")
	}
}

func TestTranslationAffectsAllColumns(t *testing.T) {
	r := matrix.Identity(2)
	p, err := New(r, []float64{1, -2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.NewFromRows([][]float64{{0, 10}, {0, 10}})
	y, err := p.ApplyNoiseless(x)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewFromRows([][]float64{{1, 11}, {-2, 8}})
	if !y.EqualApprox(want, 1e-12) {
		t.Fatalf("translation wrong: %v", y)
	}
}
