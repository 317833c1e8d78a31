package privacy

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/perturb"
)

// uniformData draws d×n data uniform in [0,1], the package's normalized
// layout.
func uniformData(rng *rand.Rand, d, n int) *matrix.Dense {
	out := matrix.New(d, n)
	for i := 0; i < d; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, rng.Float64())
		}
	}
	return out
}

// identityPerturbation isolates the noise-pooling property: R = I, t = 0, so
// every attack's error is a function of the additive noise alone.
func identityPerturbation(t *testing.T, d int) *perturb.Perturbation {
	t.Helper()
	p, err := perturb.New(matrix.Identity(d), make([]float64, d), 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCoalitionGainBoundedUnderCorrelatedLadder is the coalition-safety
// property test: for every coalition of views drawn from the correlated
// noise ladder, the measured covariance-attack gain stays within estimation
// jitter of zero — pooled views never beat the weakest member's bound.
// Repeated across seeds and both an identity and a random rotation, since
// the guarantee must hold regardless of the shared transform.
func TestCoalitionGainBoundedUnderCorrelatedLadder(t *testing.T) {
	const tol = 0.02
	sigmas := []float64{0.1, 0.3, 0.6}
	ev := FastEvaluator()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, n := 3, 400
		x := uniformData(rng, d, n)
		p := identityPerturbation(t, d)
		if seed%2 == 1 {
			var err error
			p, err = perturb.NewRandom(rng, d, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		base, err := p.ApplyNoiseless(x)
		if err != nil {
			t.Fatal(err)
		}
		ladder, err := perturb.NoiseLadder(rng, d, n, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		views := make([]TrustView, len(ladder))
		for i, noise := range ladder {
			views[i] = TrustView{Level: i + 1, Sigma: sigmas[i], Data: base.Add(noise)}
		}
		rep, err := ev.EvaluateCoalitions(x, views, Knowledge{})
		if err != nil {
			t.Fatal(err)
		}
		if want := 1<<len(views) - len(views) - 1; len(rep.Coalitions) != want {
			t.Fatalf("seed %d: %d coalitions, want %d", seed, len(rep.Coalitions), want)
		}
		for _, c := range rep.Coalitions {
			if c.Gain > tol {
				t.Errorf("seed %d: coalition %v gained %.4f over its weakest member (bound %.4f, pooled %.4f)",
					seed, c.Levels, c.Gain, c.Weakest, c.Pooled.MinGuarantee)
			}
		}
		if rep.MaxGain > tol {
			t.Errorf("seed %d: max coalition gain %.4f exceeds tolerance %.4f", seed, rep.MaxGain, tol)
		}
	}
}

// TestCoalitionGainPositiveUnderIndependentNoise is the control: the same
// evaluation applied to independently drawn per-view noise must show a
// clearly positive pooling gain — averaging k equal-σ independent views
// divides the noise variance by k. This is the diversity attack the
// correlated ladder exists to close, and it proves the evaluator would
// catch a generator that drew views independently.
func TestCoalitionGainPositiveUnderIndependentNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, n := 3, 400
	x := uniformData(rng, d, n)
	const sigma = 0.4
	views := make([]TrustView, 4)
	for i := range views {
		noisy := x.Add(matrix.RandomGaussian(rng, d, n, sigma))
		views[i] = TrustView{Level: i + 1, Sigma: sigma, Data: noisy}
	}
	rep, err := FastEvaluator().EvaluateCoalitions(x, views, Knowledge{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxGain < 0.05 {
		t.Fatalf("independent noise pooled to max gain %.4f; the diversity attack should gain clearly (>0.05)",
			rep.MaxGain)
	}
}

// TestPoolViewsPrecisionWeighting verifies the pooled estimate is dominated
// by the most precise member: pooling a noiseless view with a very noisy one
// reproduces the noiseless view almost exactly.
func TestPoolViewsPrecisionWeighting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, n := 2, 50
	x := uniformData(rng, d, n)
	noisy := x.Add(matrix.RandomGaussian(rng, d, n, 1.0))
	pooled, err := PoolViews([]TrustView{
		{Level: 1, Sigma: 0, Data: x},
		{Level: 2, Sigma: 1.0, Data: noisy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pooled.EqualApprox(x, 1e-6) {
		t.Fatal("pooling with a zero-σ member must reproduce it")
	}
	if _, err := PoolViews(nil); err == nil {
		t.Fatal("pooling no views must fail")
	}
}
