// Package perturb implements geometric data perturbation as defined in the
// paper's §2: G(X) = R·X + Ψ + Δ, where X is the normalized dataset laid out
// d×N (one column per record), R is a d×d random orthogonal matrix,
// Ψ = t·1ᵀ is a random translation with t ~ U[-1,1]^d, and Δ is an i.i.d.
// additive noise matrix used to perturb distances.
//
// It also implements the space adaptors of §3 that re-express data perturbed
// in one space in another party's space without ever exposing the raw data:
// R_it = R_t·R_i⁻¹ and Ψ_it = Ψ_t − R_t·R_i⁻¹·Ψ_i.
package perturb

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/matrix"
)

// Orthogonality tolerance for validating rotation components.
const orthoTol = 1e-8

// Errors returned by the perturbation engine.
var (
	ErrNotOrthogonal = errors.New("perturb: rotation component is not orthogonal")
	ErrDimMismatch   = errors.New("perturb: dimension mismatch")
	ErrBadNoise      = errors.New("perturb: negative noise level")
)

// Perturbation is one geometric perturbation G : (R, t) with a noise level.
// R is orthogonal by construction; the inverse rotation is therefore Rᵀ.
type Perturbation struct {
	R          *matrix.Dense // d×d orthogonal rotation
	T          []float64     // length-d translation vector t
	NoiseSigma float64       // σ of the i.i.d. Gaussian noise Δ
}

// New validates and assembles a perturbation.
func New(r *matrix.Dense, t []float64, noiseSigma float64) (*Perturbation, error) {
	if r.Rows() != r.Cols() {
		return nil, fmt.Errorf("%w: rotation is %dx%d", ErrDimMismatch, r.Rows(), r.Cols())
	}
	if len(t) != r.Rows() {
		return nil, fmt.Errorf("%w: translation length %d vs dimension %d", ErrDimMismatch, len(t), r.Rows())
	}
	if noiseSigma < 0 {
		return nil, fmt.Errorf("%w: σ=%v", ErrBadNoise, noiseSigma)
	}
	if !r.IsOrthogonal(orthoTol) {
		return nil, ErrNotOrthogonal
	}
	return &Perturbation{R: r.Clone(), T: append([]float64(nil), t...), NoiseSigma: noiseSigma}, nil
}

// NewRandom draws a perturbation for dimension d: Haar-random orthogonal R
// and t ~ U[-1,1]^d, with the given noise level.
func NewRandom(rng *rand.Rand, d int, noiseSigma float64) (*Perturbation, error) {
	if d <= 0 {
		return nil, fmt.Errorf("%w: dimension %d", ErrDimMismatch, d)
	}
	if noiseSigma < 0 {
		return nil, fmt.Errorf("%w: σ=%v", ErrBadNoise, noiseSigma)
	}
	t := make([]float64, d)
	for i := range t {
		t[i] = rng.Float64()*2 - 1
	}
	return &Perturbation{
		R:          matrix.RandomOrthogonal(rng, d),
		T:          t,
		NoiseSigma: noiseSigma,
	}, nil
}

// Dim returns the data dimensionality the perturbation applies to.
func (p *Perturbation) Dim() int { return p.R.Rows() }

// Clone returns a deep copy.
func (p *Perturbation) Clone() *Perturbation {
	return &Perturbation{
		R:          p.R.Clone(),
		T:          append([]float64(nil), p.T...),
		NoiseSigma: p.NoiseSigma,
	}
}

// WithoutNoise returns a copy with σ = 0; the SAP target perturbation "has
// no noise component".
func (p *Perturbation) WithoutNoise() *Perturbation {
	c := p.Clone()
	c.NoiseSigma = 0
	return c
}

// Apply perturbs a d×N data matrix: Y = R·X + Ψ + Δ, drawing Δ from rng.
// The drawn noise matrix is returned alongside Y so callers (tests,
// protocol bookkeeping) can reason about the inherited-noise identity.
func (p *Perturbation) Apply(rng *rand.Rand, x *matrix.Dense) (y, noise *matrix.Dense, err error) {
	if x.Rows() != p.Dim() {
		return nil, nil, fmt.Errorf("%w: data is %dx%d, perturbation dim %d",
			ErrDimMismatch, x.Rows(), x.Cols(), p.Dim())
	}
	y = p.R.Mul(x)
	addTranslation(y, p.T)
	noise = matrix.New(x.Rows(), x.Cols())
	if p.NoiseSigma > 0 {
		noise = matrix.RandomGaussian(rng, x.Rows(), x.Cols(), p.NoiseSigma)
		y = y.Add(noise)
	}
	return y, noise, nil
}

// ApplyNoiseless computes R·X + Ψ without drawing noise, used for target-
// space references and test-set transformation.
func (p *Perturbation) ApplyNoiseless(x *matrix.Dense) (*matrix.Dense, error) {
	if x.Rows() != p.Dim() {
		return nil, fmt.Errorf("%w: data is %dx%d, perturbation dim %d",
			ErrDimMismatch, x.Rows(), x.Cols(), p.Dim())
	}
	y := p.R.Mul(x)
	addTranslation(y, p.T)
	return y, nil
}

// addTranslation adds t to every column of y in place (Ψ = t·1ᵀ).
func addTranslation(y *matrix.Dense, t []float64) {
	for i := 0; i < y.Rows(); i++ {
		ti := t[i]
		if ti == 0 {
			continue
		}
		for j := 0; j < y.Cols(); j++ {
			y.Set(i, j, y.At(i, j)+ti)
		}
	}
}

// Equal reports whether two perturbations have identical parameters within
// tolerance eps (noise levels compared exactly).
func (p *Perturbation) Equal(q *Perturbation, eps float64) bool {
	if p.Dim() != q.Dim() || p.NoiseSigma != q.NoiseSigma {
		return false
	}
	if !p.R.EqualApprox(q.R, eps) {
		return false
	}
	for i := range p.T {
		if d := p.T[i] - q.T[i]; d > eps || d < -eps {
			return false
		}
	}
	return true
}
