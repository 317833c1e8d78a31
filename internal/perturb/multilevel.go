package perturb

// Multi-level trust perturbation (PAPERS.md, Li et al., "Enabling Multi-level
// Trust in Privacy Preserving Data Mining"): one dataset served at several
// trust levels, each level seeing the shared geometric transform plus its own
// additive noise. The defining constraint is that the per-level noise is
// drawn jointly, not independently — level i+1's noise matrix is level i's
// plus an independent Gaussian increment of variance σ_{i+1}² − σ_i². Where
// two levels overlap their noise is identical, so averaging several views
// cancels nothing: a coalition pooling any set of views can at best recover
// the least-noisy member view, never less noise than that. Independent draws
// would break exactly this — averaging k equal-σ views divides the noise
// variance by k — which is why the ladder below is the only noise generator
// the per-view serving path uses.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// ErrBadLadder flags a multi-level noise request whose sigmas are not a
// valid trust ladder (non-negative, non-decreasing: lower trust never gets
// less noise than higher trust).
var ErrBadLadder = errors.New("perturb: trust-ladder sigmas must be non-negative and non-decreasing")

// NoiseLadder draws the correlated multi-level noise matrices: one d×n
// matrix per sigma, ordered highest trust (smallest σ) first. The i-th
// matrix has i.i.d. N(0, σ_i²) entries, and is constructed as the (i−1)-th
// matrix plus an independent increment of variance σ_i² − σ_{i−1}², so every
// pair of levels is maximally correlated. Sigmas must be non-negative and
// non-decreasing; equal adjacent sigmas share the identical matrix.
func NoiseLadder(rng *rand.Rand, d, n int, sigmas []float64) ([]*matrix.Dense, error) {
	if d <= 0 || n <= 0 {
		return nil, fmt.Errorf("%w: ladder shape %dx%d", ErrDimMismatch, d, n)
	}
	if len(sigmas) == 0 {
		return nil, fmt.Errorf("%w: no levels", ErrBadLadder)
	}
	out := make([]*matrix.Dense, len(sigmas))
	cur := matrix.New(d, n)
	prevVar := 0.0
	for i, s := range sigmas {
		if s < 0 {
			return nil, fmt.Errorf("%w: σ_%d=%v", ErrBadLadder, i, s)
		}
		v := s * s
		if v < prevVar {
			return nil, fmt.Errorf("%w: σ_%d=%v after σ=%v", ErrBadLadder, i, s, math.Sqrt(prevVar))
		}
		if inc := v - prevVar; inc > 0 {
			cur = cur.Add(matrix.RandomGaussian(rng, d, n, math.Sqrt(inc)))
		}
		prevVar = v
		out[i] = cur.Clone()
	}
	return out, nil
}
