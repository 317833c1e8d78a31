package classify

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/perturb"
)

func irisSplit(t *testing.T, seed int64) (train, test *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := dataset.GenerateByName("Iris", rng)
	if err != nil {
		t.Fatal(err)
	}
	norm, _, err := dataset.Normalize(d)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = norm.Split(rng, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestNearestCentroidBasics(t *testing.T) {
	d, _ := dataset.New("t", [][]float64{
		{0, 0}, {0, 1}, {10, 10}, {10, 11},
	}, []int{0, 0, 1, 1})
	nc := NewNearestCentroid()
	if _, err := nc.Predict([]float64{0, 0}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted err = %v", err)
	}
	if err := nc.Fit(d); err != nil {
		t.Fatal(err)
	}
	got, err := nc.Predict([]float64{1, 1})
	if err != nil || got != 0 {
		t.Fatalf("Predict near class 0 = %d, %v", got, err)
	}
	got, err = nc.Predict([]float64{9, 9})
	if err != nil || got != 1 {
		t.Fatalf("Predict near class 1 = %d, %v", got, err)
	}
	if _, err := nc.Predict([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim err = %v", err)
	}
	if err := nc.Fit(nil); !errors.Is(err, ErrEmptyTrain) {
		t.Fatalf("nil fit err = %v", err)
	}
}

// TestCloneReturnsFreshConfiguredInstance pins the Cloner contract every
// built-in classifier honors: the clone carries the original's
// configuration, starts unfitted, and fitting it never disturbs the
// original's predictions — the property background model swaps rely on.
func TestCloneReturnsFreshConfiguredInstance(t *testing.T) {
	train, test := irisSplit(t, 3)
	far, _ := dataset.New("far", [][]float64{
		{90, 90, 90, 90}, {91, 91, 91, 91}, {90.5, 90.5, 90.5, 90.5},
	}, []int{0, 1, 2})

	for name, original := range map[string]Cloner{
		"knn":      NewKNN(3),
		"svm":      NewSVM(SVMConfig{C: 2}),
		"centroid": NewNearestCentroid(),
	} {
		if err := original.Fit(train); err != nil {
			t.Fatalf("%s: fit original: %v", name, err)
		}
		before := make([]int, test.Len())
		for i, x := range test.X {
			label, err := original.Predict(x)
			if err != nil {
				t.Fatalf("%s: predict: %v", name, err)
			}
			before[i] = label
		}

		clone := original.Clone()
		if _, err := clone.Predict(test.X[0]); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("%s: clone of a fitted model predicts without a fit: %v", name, err)
		}
		// Fitting the clone on disjoint data must leave the original's
		// predictions byte-identical.
		if err := clone.Fit(far); err != nil {
			t.Fatalf("%s: fit clone: %v", name, err)
		}
		for i, x := range test.X {
			label, err := original.Predict(x)
			if err != nil {
				t.Fatalf("%s: re-predict: %v", name, err)
			}
			if label != before[i] {
				t.Fatalf("%s: original prediction %d changed after fitting the clone (%d -> %d)",
					name, i, before[i], label)
			}
		}
	}
	// A KNN clone preserves its configuration.
	knn := &KNN{K: 7, ForceBrute: true}
	kc, ok := knn.Clone().(*KNN)
	if !ok || kc.K != 7 || !kc.ForceBrute {
		t.Fatalf("KNN clone = %+v, want K=7 ForceBrute", kc)
	}
}

func TestKNNAccuracyOnIris(t *testing.T) {
	train, test := irisSplit(t, 1)
	knn := NewKNN(5)
	if err := knn.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(knn, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("KNN accuracy on Iris = %v, want >= 0.85", acc)
	}
}

func TestKNNBruteMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, err := dataset.GenerateByName("Diabetes", rng)
	if err != nil {
		t.Fatal(err)
	}
	norm, _, _ := dataset.Normalize(d)
	train, test, err := norm.Split(rng, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	brute := NewKNN(7)
	brute.ForceBrute = true
	tree := NewKNN(7)
	if err := brute.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	if tree.tree == nil {
		t.Fatal("kd-tree not built for a large training set")
	}
	for i := range test.X {
		a, err := brute.Predict(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := tree.Predict(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("record %d: brute=%d kdtree=%d", i, a, b)
		}
	}
}

func TestKNNErrors(t *testing.T) {
	knn := NewKNN(0)
	if knn.K != 5 {
		t.Fatalf("default K = %d, want 5", knn.K)
	}
	if _, err := knn.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted err = %v", err)
	}
	small, _ := dataset.New("s", [][]float64{{1}, {2}}, []int{0, 1})
	big := NewKNN(10)
	if err := big.Fit(small); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K>n err = %v", err)
	}
	if err := knn.Fit(small); err != nil {
		// K=5 > 2 records is also invalid.
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("fit err = %v", err)
		}
	}
	one := NewKNN(1)
	if err := one.Fit(small); err != nil {
		t.Fatal(err)
	}
	if _, err := one.Predict([]float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim err = %v", err)
	}
}

func TestKNNRotationInvariance(t *testing.T) {
	// The property the paper builds on: KNN accuracy is unchanged when
	// train AND test go through the same rotation + translation.
	train, test := irisSplit(t, 3)
	knn := NewKNN(5)
	if err := knn.Fit(train); err != nil {
		t.Fatal(err)
	}
	base, err := Accuracy(knn, test)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	p, err := perturb.NewRandom(rng, train.Dim(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rotTrain := train.Clone()
	rotTest := test.Clone()
	yTrain, err := p.ApplyNoiseless(train.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	yTest, err := p.ApplyNoiseless(test.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	if err := rotTrain.ReplaceFeaturesT(yTrain); err != nil {
		t.Fatal(err)
	}
	if err := rotTest.ReplaceFeaturesT(yTest); err != nil {
		t.Fatal(err)
	}
	knnRot := NewKNN(5)
	if err := knnRot.Fit(rotTrain); err != nil {
		t.Fatal(err)
	}
	rot, err := Accuracy(knnRot, rotTest)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-rot) > 0.03 {
		t.Errorf("KNN accuracy changed under rotation: %v vs %v", base, rot)
	}
}

func TestSVMBinaryLinearlySeparable(t *testing.T) {
	// Clearly separated clusters: the SVM must classify them perfectly.
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		x = append(x, []float64{rng.NormFloat64()*0.3 - 2, rng.NormFloat64() * 0.3})
		y = append(y, 0)
		x = append(x, []float64{rng.NormFloat64()*0.3 + 2, rng.NormFloat64() * 0.3})
		y = append(y, 1)
	}
	d, _ := dataset.New("sep", x, y)
	svm := NewSVM(SVMConfig{Kernel: LinearKernel{}})
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(svm, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Errorf("separable accuracy = %v, want ~1", acc)
	}
}

func TestSVMRBFOnIrisMulticlass(t *testing.T) {
	train, test := irisSplit(t, 6)
	svm := NewSVM(SVMConfig{})
	if err := svm.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(svm, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("SVM(RBF) Iris accuracy = %v, want >= 0.85", acc)
	}
}

func TestSVMRotationInvariance(t *testing.T) {
	// RBF depends only on distances, so rotating+translating both sides
	// must leave accuracy essentially unchanged.
	train, test := irisSplit(t, 7)
	svm := NewSVM(SVMConfig{})
	if err := svm.Fit(train); err != nil {
		t.Fatal(err)
	}
	base, err := Accuracy(svm, test)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	p, err := perturb.NewRandom(rng, train.Dim(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rotTrain, rotTest := train.Clone(), test.Clone()
	yTr, _ := p.ApplyNoiseless(train.FeaturesT())
	yTe, _ := p.ApplyNoiseless(test.FeaturesT())
	if err := rotTrain.ReplaceFeaturesT(yTr); err != nil {
		t.Fatal(err)
	}
	if err := rotTest.ReplaceFeaturesT(yTe); err != nil {
		t.Fatal(err)
	}
	svmRot := NewSVM(SVMConfig{})
	if err := svmRot.Fit(rotTrain); err != nil {
		t.Fatal(err)
	}
	rot, err := Accuracy(svmRot, rotTest)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-rot) > 0.05 {
		t.Errorf("SVM(RBF) accuracy changed under rotation: %v vs %v", base, rot)
	}
}

func TestSVMErrors(t *testing.T) {
	svm := NewSVM(SVMConfig{})
	if _, err := svm.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted err = %v", err)
	}
	if err := svm.Fit(nil); !errors.Is(err, ErrEmptyTrain) {
		t.Fatalf("nil err = %v", err)
	}
	oneClass, _ := dataset.New("one", [][]float64{{1}, {2}}, []int{0, 0})
	if err := svm.Fit(oneClass); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("one-class err = %v", err)
	}
	ok, _ := dataset.New("ok", [][]float64{{0}, {1}, {0.1}, {0.9}}, []int{0, 1, 0, 1})
	if err := svm.Fit(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := svm.Predict([]float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim err = %v", err)
	}
}

func TestAccuracyEmptyTest(t *testing.T) {
	knn := NewKNN(1)
	empty := &dataset.Dataset{}
	if _, err := Accuracy(knn, empty); !errors.Is(err, ErrEmptyTrain) {
		t.Fatalf("err = %v", err)
	}
}

func TestSVMDeterministicPerSeed(t *testing.T) {
	train, test := irisSplit(t, 11)
	run := func() float64 {
		svm := NewSVM(SVMConfig{Seed: 7})
		if err := svm.Fit(train); err != nil {
			t.Fatal(err)
		}
		acc, err := Accuracy(svm, test)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different accuracies: %v vs %v", a, b)
	}
}

func TestKernels(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := (LinearKernel{}).Eval(a, b); got != 0 {
		t.Errorf("linear = %v, want 0", got)
	}
	if got := (LinearKernel{}).Eval(a, a); got != 1 {
		t.Errorf("linear self = %v, want 1", got)
	}
	rbf := RBFKernel{Gamma: 0.5}
	if got := rbf.Eval(a, a); got != 1 {
		t.Errorf("rbf self = %v, want 1", got)
	}
	if got := rbf.Eval(a, b); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("rbf = %v, want e^-1", got)
	}
	if LinearKernel.Name(LinearKernel{}) != "linear" || rbf.Name() != "rbf" {
		t.Error("kernel names wrong")
	}
}

func TestKNNRotationInvarianceExactDistances(t *testing.T) {
	// Property check via matrices: perturbing with a pure rotation keeps
	// every pairwise distance, hence identical KNN neighbour sets.
	rng := rand.New(rand.NewSource(12))
	q := matrix.RandomOrthogonal(rng, 3)
	a := []float64{0.3, -0.2, 0.9}
	b := []float64{-0.1, 0.5, 0.4}
	ra := q.MulVec(a)
	rb := q.MulVec(b)
	if math.Abs(euclidean2(a, b)-euclidean2(ra, rb)) > 1e-12 {
		t.Fatal("rotation changed pairwise distance")
	}
}
