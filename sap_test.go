package sap_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	sap "repro"
)

func runCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestDatasetNames(t *testing.T) {
	names := sap.DatasetNames()
	if len(names) != 12 {
		t.Fatalf("%d datasets, want 12", len(names))
	}
}

func TestGenerateDatasetNormalized(t *testing.T) {
	d, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 150 || d.Dim() != 4 {
		t.Fatalf("Iris dims %dx%d", d.Len(), d.Dim())
	}
	for i := range d.X {
		for _, v := range d.X[i] {
			if v < 0 || v > 1 {
				t.Fatalf("value %v outside [0,1]; GenerateDataset must normalize", v)
			}
		}
	}
	if _, err := sap.GenerateDataset("Nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestOptimizePerturbation(t *testing.T) {
	d, err := sap.GenerateDataset("Iris", 2)
	if err != nil {
		t.Fatal(err)
	}
	p, rho, err := sap.OptimizePerturbation(d, 3, sap.WithOptimizer(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != d.Dim() {
		t.Fatalf("perturbation dim %d, want %d", p.Dim(), d.Dim())
	}
	if rho <= 0 {
		t.Fatalf("guarantee %v, want > 0", rho)
	}
	if _, _, err := sap.OptimizePerturbation(nil, 1); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("nil err = %v", err)
	}
}

func TestEvaluatePrivacy(t *testing.T) {
	d, _ := sap.GenerateDataset("Iris", 4)
	p, _, err := sap.OptimizePerturbation(d, 5, sap.WithOptimizer(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sap.EvaluatePrivacy(d, p, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinGuarantee <= 0 {
		t.Fatalf("guarantee %v", rep.MinGuarantee)
	}
	if len(rep.Attacks) != 4 {
		t.Fatalf("%d attacks, want 4", len(rep.Attacks))
	}
	if _, err := sap.EvaluatePrivacy(d, p, 6, -1); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("bad pairs err = %v", err)
	}
}

// TestRunRecordOrderIsPinned runs the same five-party SAP session five
// times at one seed: the miner's unified dataset must come out identical,
// record order included, every time.
func TestRunRecordOrderIsPinned(t *testing.T) {
	pool, err := sap.GenerateDataset("Iris", 3)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := sap.Split(pool, 5, sap.PartitionUniform, 4)
	if err != nil {
		t.Fatal(err)
	}
	var first *sap.Dataset
	for run := 0; run < 5; run++ {
		res, err := sap.Run(runCtx(t), sap.WithParties(parties...), sap.WithSeed(5), sap.WithOptimizer(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		u := res.Unified()
		if first == nil {
			first = u
			continue
		}
		if !reflect.DeepEqual(u.X, first.X) || !reflect.DeepEqual(u.Y, first.Y) {
			t.Fatalf("run %d unified a different dataset (or order) than run 0", run)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	pool, err := sap.GenerateDataset("Diabetes", 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := sap.TrainTestSplit(pool, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := sap.Split(train, 4, sap.PartitionUniform, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sap.Run(runCtx(t),
		sap.WithParties(parties...),
		sap.WithSeed(10),
		sap.WithOptimizer(2, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unified().Len() != train.Len() {
		t.Fatalf("unified %d records, want %d", res.Unified().Len(), train.Len())
	}
	if res.Identifiability() != 1.0/3 {
		t.Fatalf("identifiability %v, want 1/3", res.Identifiability())
	}
	if len(res.LocalGuarantees()) != 4 {
		t.Fatalf("%d guarantees, want 4", len(res.LocalGuarantees()))
	}

	// Train on unified, score on the transformed test set; must be close
	// to the clear baseline.
	model := sap.NewKNN(5)
	if err := model.Fit(res.Unified()); err != nil {
		t.Fatal(err)
	}
	testT, err := res.TransformForInference(test)
	if err != nil {
		t.Fatal(err)
	}
	accPerturbed, err := sap.Accuracy(model, testT)
	if err != nil {
		t.Fatal(err)
	}
	base := sap.NewKNN(5)
	if err := base.Fit(train); err != nil {
		t.Fatal(err)
	}
	accClear, err := sap.Accuracy(base, test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(accClear-accPerturbed) > 0.12 {
		t.Errorf("accuracy deviated too much: clear %v vs perturbed %v", accClear, accPerturbed)
	}
}

func TestRunValidation(t *testing.T) {
	ctx := runCtx(t)
	d, _ := sap.GenerateDataset("Iris", 11)
	if _, err := sap.Run(ctx, sap.WithParties(d, d)); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("k=2 err = %v", err)
	}
	if _, err := sap.Run(ctx, sap.WithParties(d, d, nil)); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("nil party err = %v", err)
	}
	if _, err := sap.Run(ctx); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("no parties err = %v", err)
	}
}

func TestTransformForInferenceEmpty(t *testing.T) {
	pool, _ := sap.GenerateDataset("Iris", 12)
	parties, err := sap.Split(pool, 3, sap.PartitionUniform, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sap.Run(runCtx(t),
		sap.WithParties(parties...),
		sap.WithSeed(14),
		sap.WithOptimizer(2, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.TransformForInference(nil); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("nil err = %v", err)
	}
}

func TestRiskReexports(t *testing.T) {
	r, err := sap.RiskEq1(0.5, 0.9, 0.8, 1)
	if err != nil || r <= 0 {
		t.Fatalf("RiskEq1 = %v, %v", r, err)
	}
	r2, err := sap.RiskSAP(5, 0.9, 0.8, 1)
	if err != nil || r2 <= 0 {
		t.Fatalf("RiskSAP = %v, %v", r2, err)
	}
	k, err := sap.MinParties(0.95, 0.9)
	if err != nil || k < 2 {
		t.Fatalf("MinParties = %v, %v", k, err)
	}
}

func TestClassifierConstructors(t *testing.T) {
	d, _ := sap.GenerateDataset("Iris", 15)
	train, test, _ := sap.TrainTestSplit(d, 0.3, 16)
	for name, clf := range map[string]sap.Classifier{
		"knn":      sap.NewKNN(5),
		"svm":      sap.NewSVM(sap.SVMConfig{}),
		"centroid": sap.NewNearestCentroid(),
	} {
		if err := clf.Fit(train); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		acc, err := sap.Accuracy(clf, test)
		if err != nil {
			t.Fatalf("%s accuracy: %v", name, err)
		}
		if acc < 0.6 {
			t.Errorf("%s accuracy %v too low", name, acc)
		}
	}
}
