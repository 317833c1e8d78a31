package perturb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestAdaptorEquation(t *testing.T) {
	// The core §3 identity: for noiseless data,
	// A_it(G_i(X)) == G_t(X).
	rng := rand.New(rand.NewSource(1))
	gi, _ := NewRandom(rng, 5, 0)
	gt, _ := NewRandom(rng, 5, 0)
	x := testData(rng, 5, 40)

	yi, _, err := gi.Apply(rng, x)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptor(gi, gt)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := a.Apply(yi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gt.ApplyNoiseless(x)
	if err != nil {
		t.Fatal(err)
	}
	if !adapted.EqualApprox(want, 1e-9) {
		t.Fatal("A_it(G_i(X)) != G_t(X) for noiseless source")
	}
}

func TestAdaptorInheritedNoiseIdentity(t *testing.T) {
	// With source noise Δ_i: A_it(G_i(X)) == G_t(X) + R_it·Δ_i.
	// This is the paper's complementary-noise equivalence: not removing
	// R_it·Δ_i in the target space == inheriting Δ_i from the source space.
	rng := rand.New(rand.NewSource(2))
	gi, _ := NewRandom(rng, 4, 0.2)
	gt, _ := NewRandom(rng, 4, 0)
	x := testData(rng, 4, 60)

	yi, noise, err := gi.Apply(rng, x)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptor(gi, gt)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := a.Apply(yi)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := gt.ApplyNoiseless(x)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Add(a.Rot.Mul(noise))
	if !adapted.EqualApprox(want, 1e-9) {
		t.Fatal("adapted data != G_t(X) + R_it·Δ_i")
	}
}

func TestAdaptorRotationIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gi, _ := NewRandom(rng, 6, 0)
	gt, _ := NewRandom(rng, 6, 0)
	a, err := NewAdaptor(gi, gt)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rot.IsOrthogonal(1e-9) {
		t.Fatal("R_it = R_t·R_iᵀ must be orthogonal")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAdaptorDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g3, _ := NewRandom(rng, 3, 0)
	g4, _ := NewRandom(rng, 4, 0)
	if _, err := NewAdaptor(g3, g4); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("NewAdaptor err = %v", err)
	}
	a, _ := NewAdaptor(g3, g3.Clone())
	if _, err := a.Apply(testData(rng, 4, 2)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Apply err = %v", err)
	}
}

func TestIdentityAdaptor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := testData(rng, 3, 10)
	g, _ := NewRandom(rng, 3, 0)
	self, err := NewAdaptor(g, g)
	if err != nil {
		t.Fatal(err)
	}
	y, err := self.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.EqualApprox(x, 1e-9) {
		t.Fatal("self adaptor changed data")
	}
	if !self.Rot.EqualApprox(matrix.Identity(3), 1e-9) {
		t.Fatal("self adaptor rotation != I")
	}
	for _, v := range self.Trans {
		if v > 1e-9 || v < -1e-9 {
			t.Fatal("self adaptor translation != 0")
		}
	}
}

func TestAdaptorCompose(t *testing.T) {
	// Composition law: A_{t→u} ∘ A_{i→t} == A_{i→u}.
	rng := rand.New(rand.NewSource(6))
	gi, _ := NewRandom(rng, 4, 0)
	gt, _ := NewRandom(rng, 4, 0)
	gu, _ := NewRandom(rng, 4, 0)
	ait, _ := NewAdaptor(gi, gt)
	atu, _ := NewAdaptor(gt, gu)
	aiu, _ := NewAdaptor(gi, gu)
	yi, _, _ := gi.Apply(rng, testData(rng, 4, 20))

	yt, err := ait.Apply(yi)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := atu.Apply(yt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := aiu.Apply(yi)
	if err != nil {
		t.Fatal(err)
	}
	if !chained.EqualApprox(direct, 1e-9) {
		t.Fatal("A_{t→u}(A_{i→t}(Y)) != A_{i→u}(Y)")
	}
}

func TestAdaptorRoundTrip(t *testing.T) {
	// Adapting i→t then t→i restores the original perturbed data.
	rng := rand.New(rand.NewSource(7))
	gi, _ := NewRandom(rng, 5, 0.1)
	gt, _ := NewRandom(rng, 5, 0)
	x := testData(rng, 5, 25)
	yi, _, _ := gi.Apply(rng, x)

	fwd, _ := NewAdaptor(gi, gt)
	bwd, _ := NewAdaptor(gt, gi)
	there, err := fwd.Apply(yi)
	if err != nil {
		t.Fatal(err)
	}
	back, err := bwd.Apply(there)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualApprox(yi, 1e-9) {
		t.Fatal("i→t→i round trip changed the data")
	}
}

func TestAdaptorValidate(t *testing.T) {
	tests := []struct {
		name string
		a    *Adaptor
		ok   bool
	}{
		{"nil rot", &Adaptor{Trans: []float64{1}}, false},
		{"non-square", &Adaptor{Rot: matrix.New(2, 3), Trans: []float64{1, 2}}, false},
		{"bad trans len", &Adaptor{Rot: matrix.Identity(2), Trans: []float64{1}}, false},
		{"not orthogonal", &Adaptor{Rot: matrix.NewFromRows([][]float64{{2, 0}, {0, 2}}), Trans: []float64{0, 0}}, false},
		{"valid", &Adaptor{Rot: matrix.Identity(3), Trans: make([]float64, 3)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.a.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate accepted an invalid adaptor")
			}
		})
	}
}

func TestAdaptorClone(t *testing.T) {
	a := &Adaptor{Rot: matrix.Identity(2), Trans: make([]float64, 2)}
	b := a.Clone()
	b.Trans[0] = 9
	b.Rot.Set(0, 0, 9)
	if a.Trans[0] != 0 || a.Rot.At(0, 0) != 1 {
		t.Fatal("Clone aliased storage")
	}
}

func TestPropAdaptorEquationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(6)
		n := 5 + rng.Intn(20)
		gi, err := NewRandom(rng, d, 0)
		if err != nil {
			return false
		}
		gt, err := NewRandom(rng, d, 0)
		if err != nil {
			return false
		}
		x := testData(rng, d, n)
		yi, _, err := gi.Apply(rng, x)
		if err != nil {
			return false
		}
		a, err := NewAdaptor(gi, gt)
		if err != nil {
			return false
		}
		adapted, err := a.Apply(yi)
		if err != nil {
			return false
		}
		want, err := gt.ApplyNoiseless(x)
		if err != nil {
			return false
		}
		return adapted.EqualApprox(want, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
