package perturb

import (
	"fmt"

	"repro/internal/matrix"
)

// Adaptor is the space adaptor A_it = <R_it, Ψ_it> of the paper's §3. It
// re-expresses data perturbed under a source space G_i in a target space
// G_t:
//
//	Y_{i→t} = R_it·Y_i + Ψ_it − R_it·Δ_i
//
// with R_it = R_t·R_i⁻¹ and Ψ_it = Ψ_t − R_t·R_i⁻¹·Ψ_i. The third term (the
// "complementary noise") is never shipped: leaving it in place in the target
// space is equivalent to inheriting the source noise Δ_i, which is exactly
// what SAP wants — the target perturbation itself carries no noise.
type Adaptor struct {
	Rot   *matrix.Dense // R_it, d×d orthogonal
	Trans []float64     // Ψ_it translation vector
}

// NewAdaptor computes the space adaptor from a source perturbation to a
// target perturbation of the same dimension.
func NewAdaptor(from, to *Perturbation) (*Adaptor, error) {
	if from.Dim() != to.Dim() {
		return nil, fmt.Errorf("%w: source dim %d vs target dim %d", ErrDimMismatch, from.Dim(), to.Dim())
	}
	// R_i is orthogonal, so R_i⁻¹ = R_iᵀ.
	rot := to.R.Mul(from.R.T())
	rotFromT := rot.MulVec(from.T)
	trans := make([]float64, len(to.T))
	for i := range trans {
		trans[i] = to.T[i] - rotFromT[i]
	}
	return &Adaptor{Rot: rot, Trans: trans}, nil
}

// Dim returns the adaptor's dimensionality.
func (a *Adaptor) Dim() int { return a.Rot.Rows() }

// Apply maps perturbed data from the source space into the target space:
// R_it·Y + Ψ_it. For noisy source data the result inherits the rotated
// source noise R_it·Δ_i (the complementary-noise identity).
func (a *Adaptor) Apply(y *matrix.Dense) (*matrix.Dense, error) {
	if y.Rows() != a.Dim() {
		return nil, fmt.Errorf("%w: data is %dx%d, adaptor dim %d",
			ErrDimMismatch, y.Rows(), y.Cols(), a.Dim())
	}
	out := a.Rot.Mul(y)
	addTranslation(out, a.Trans)
	return out, nil
}

// Clone returns a deep copy.
func (a *Adaptor) Clone() *Adaptor {
	return &Adaptor{Rot: a.Rot.Clone(), Trans: append([]float64(nil), a.Trans...)}
}

// Validate checks the structural invariants an adaptor received from the
// network must satisfy before use.
func (a *Adaptor) Validate() error {
	if a.Rot == nil {
		return fmt.Errorf("%w: nil rotation", ErrDimMismatch)
	}
	if a.Rot.Rows() != a.Rot.Cols() {
		return fmt.Errorf("%w: rotation %dx%d", ErrDimMismatch, a.Rot.Rows(), a.Rot.Cols())
	}
	if len(a.Trans) != a.Rot.Rows() {
		return fmt.Errorf("%w: translation length %d vs dim %d", ErrDimMismatch, len(a.Trans), a.Rot.Rows())
	}
	if !a.Rot.IsOrthogonal(orthoTol) {
		return ErrNotOrthogonal
	}
	return nil
}
