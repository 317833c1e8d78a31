package perturb

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestNoiseLadderCorrelation pins the defining property of the multi-level
// generator: lower-trust noise equals higher-trust noise plus an independent
// increment, so the difference Δ_j − Δ_i has variance σ_j² − σ_i² (not
// σ_i² + σ_j² as independent draws would give).
func TestNoiseLadderCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sigmas := []float64{0.1, 0.3, 0.8}
	d, n := 4, 20000
	ladder, err := NoiseLadder(rng, d, n, sigmas)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladder) != len(sigmas) {
		t.Fatalf("ladder has %d levels, want %d", len(ladder), len(sigmas))
	}
	variance := func(m *matrix.Dense) float64 {
		var sum, sq float64
		cnt := float64(m.Rows() * m.Cols())
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				v := m.At(i, j)
				sum += v
				sq += v * v
			}
		}
		mean := sum / cnt
		return sq/cnt - mean*mean
	}
	for i, s := range sigmas {
		got := variance(ladder[i])
		if want := s * s; math.Abs(got-want) > 0.05*want+1e-3 {
			t.Errorf("level %d variance %.4f, want ~%.4f", i, got, want)
		}
	}
	for i := 0; i < len(sigmas); i++ {
		for j := i + 1; j < len(sigmas); j++ {
			diff := ladder[j].Sub(ladder[i])
			got := variance(diff)
			want := sigmas[j]*sigmas[j] - sigmas[i]*sigmas[i]
			indep := sigmas[j]*sigmas[j] + sigmas[i]*sigmas[i]
			if math.Abs(got-want) > 0.05*indep+1e-3 {
				t.Errorf("Δ_%d−Δ_%d variance %.4f, want ~%.4f (independent draws would give %.4f)",
					j, i, got, want, indep)
			}
		}
	}
}

// TestNoiseLadderEqualSigmasShareNoise verifies that equal adjacent sigmas
// yield the identical matrix: no increment, perfect correlation.
func TestNoiseLadderEqualSigmasShareNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ladder, err := NoiseLadder(rng, 3, 50, []float64{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !ladder[0].EqualApprox(ladder[1], 0) {
		t.Fatal("equal sigmas must share the identical noise matrix")
	}
}

// TestNoiseLadderRejectsBadSigmas covers the ladder validation: negative and
// decreasing sigmas, empty ladders, bad shapes.
func TestNoiseLadderRejectsBadSigmas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sigmas := range [][]float64{{-0.1}, {0.5, 0.2}, {}} {
		if _, err := NoiseLadder(rng, 2, 4, sigmas); !errors.Is(err, ErrBadLadder) {
			t.Errorf("sigmas %v: err %v, want ErrBadLadder", sigmas, err)
		}
	}
	if _, err := NoiseLadder(rng, 0, 4, []float64{0.1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("zero dimension: err %v, want ErrDimMismatch", err)
	}
}
