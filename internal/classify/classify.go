// Package classify implements the classifiers the paper evaluates —
// K-nearest-neighbours and an SMO-trained SVM with RBF kernel — plus a
// nearest-centroid baseline and a model-evaluation harness. Both headline
// classifiers are invariant to rotation and translation of the feature
// space, the property geometric perturbation relies on.
package classify

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Errors returned by classifiers and the evaluation harness.
var (
	ErrNotFitted   = errors.New("classify: model not fitted")
	ErrEmptyTrain  = errors.New("classify: empty training set")
	ErrDimMismatch = errors.New("classify: feature dimension mismatch")
	ErrBadConfig   = errors.New("classify: bad configuration")
)

// Classifier is a trainable multi-class classifier.
type Classifier interface {
	// Fit trains on the dataset.
	Fit(d *dataset.Dataset) error
	// Predict returns the class for one feature vector.
	Predict(x []float64) (int, error)
}

// Cloner is implemented by classifiers that can hand out a fresh, unfitted
// instance of themselves — same configuration, no training state. Serving
// layers rely on it to retrain off to the side: a replacement model is
// fitted on a training-set snapshot while the original instance keeps
// answering predictions untouched, and is only swapped in once its fit
// succeeded. All built-in classifiers (KNN, SVM, NearestCentroid) implement
// it; wrappers should return a clone that preserves whatever state makes
// the wrapper meaningful.
type Cloner interface {
	Classifier
	// Clone returns a fresh unfitted classifier with the same configuration.
	Clone() Classifier
}

// Accuracy scores a fitted classifier on a test set: the fraction of
// correctly predicted records.
func Accuracy(c Classifier, test *dataset.Dataset) (float64, error) {
	if test.Len() == 0 {
		return 0, ErrEmptyTrain
	}
	correct := 0
	for i := range test.X {
		got, err := c.Predict(test.X[i])
		if err != nil {
			return 0, fmt.Errorf("predict record %d: %w", i, err)
		}
		if got == test.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(test.Len()), nil
}

// euclidean2 returns the squared Euclidean distance between equal-length
// vectors.
func euclidean2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// NearestCentroid is a simple rotation-invariant baseline: predict the class
// of the closest class centroid.
type NearestCentroid struct {
	centroids [][]float64
	classes   []int
}

// NewNearestCentroid returns an unfitted nearest-centroid classifier.
func NewNearestCentroid() *NearestCentroid { return &NearestCentroid{} }

var _ Cloner = (*NearestCentroid)(nil)

// Clone implements Cloner.
func (nc *NearestCentroid) Clone() Classifier { return NewNearestCentroid() }

// Fit implements Classifier.
func (nc *NearestCentroid) Fit(d *dataset.Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyTrain
	}
	k := d.NumClasses()
	sums := make([][]float64, k)
	counts := make([]int, k)
	for i := range sums {
		sums[i] = make([]float64, d.Dim())
	}
	for i, row := range d.X {
		c := d.Y[i]
		counts[c]++
		for j, v := range row {
			sums[c][j] += v
		}
	}
	nc.centroids = nc.centroids[:0]
	nc.classes = nc.classes[:0]
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range sums[c] {
			sums[c][j] /= float64(counts[c])
		}
		nc.centroids = append(nc.centroids, sums[c])
		nc.classes = append(nc.classes, c)
	}
	return nil
}

// Predict implements Classifier.
func (nc *NearestCentroid) Predict(x []float64) (int, error) {
	if len(nc.centroids) == 0 {
		return 0, ErrNotFitted
	}
	if len(x) != len(nc.centroids[0]) {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrDimMismatch, len(x), len(nc.centroids[0]))
	}
	best, bestDist := 0, math.Inf(1)
	for i, c := range nc.centroids {
		if d := euclidean2(x, c); d < bestDist {
			best, bestDist = i, d
		}
	}
	return nc.classes[best], nil
}
