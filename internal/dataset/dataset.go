// Package dataset provides the data substrate for the SAP reproduction.
//
// The paper evaluates on twelve UCI machine-learning datasets. This module
// is offline and ships no third-party data, so the package generates a
// synthetic stand-in for each dataset from its published profile (size,
// dimensionality, number of classes, class balance, feature kinds, and
// per-column scale heterogeneity). See ARCHITECTURE.md ("Data substrate")
// for why this substitution preserves the observables the paper's
// experiments consume.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/matrix"
)

// Common errors returned by dataset operations.
var (
	ErrEmptyDataset  = errors.New("dataset: empty dataset")
	ErrBadPartition  = errors.New("dataset: invalid partition request")
	ErrShapeMismatch = errors.New("dataset: shape mismatch")
)

// Dataset is an in-memory labeled dataset: n records of d features each.
type Dataset struct {
	Name         string
	FeatureNames []string
	X            [][]float64 // n × d feature rows
	Y            []int       // n class labels, 0-based
}

// featureNames holds the default names "f0"…"f63", formatted once: streams
// build a Dataset per chunk, and New would otherwise format every name again.
var featureNames = func() []string {
	names := make([]string, 64)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	return names
}()

// New creates a dataset, validating that X and Y agree and rows are
// rectangular.
func New(name string, x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrShapeMismatch, len(x), len(y))
	}
	if len(x) == 0 {
		return nil, ErrEmptyDataset
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrShapeMismatch, i, len(row), d)
		}
	}
	names := make([]string, d)
	for j := range names {
		if j < len(featureNames) {
			names[j] = featureNames[j]
		} else {
			names[j] = fmt.Sprintf("f%d", j)
		}
	}
	return &Dataset{Name: name, FeatureNames: names, X: x, Y: y}, nil
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the number of features (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// NumClasses returns the number of distinct labels, assuming labels are
// dense 0-based class indices.
func (d *Dataset) NumClasses() int {
	max := -1
	for _, y := range d.Y {
		if y > max {
			max = y
		}
	}
	return max + 1
}

// ClassCounts returns the per-class record counts.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	x := make([][]float64, len(d.X))
	for i, row := range d.X {
		x[i] = append([]float64(nil), row...)
	}
	return &Dataset{
		Name:         d.Name,
		FeatureNames: append([]string(nil), d.FeatureNames...),
		X:            x,
		Y:            append([]int(nil), d.Y...),
	}
}

// Subset returns a new dataset holding the rows at the given indices
// (copied, not aliased).
func (d *Dataset) Subset(indices []int) *Dataset {
	x := make([][]float64, 0, len(indices))
	y := make([]int, 0, len(indices))
	for _, i := range indices {
		x = append(x, append([]float64(nil), d.X[i]...))
		y = append(y, d.Y[i])
	}
	return &Dataset{
		Name:         d.Name,
		FeatureNames: append([]string(nil), d.FeatureNames...),
		X:            x,
		Y:            y,
	}
}

// Shuffled returns a copy with rows in random order.
func (d *Dataset) Shuffled(rng *rand.Rand) *Dataset {
	idx := rng.Perm(d.Len())
	return d.Subset(idx)
}

// Merge concatenates datasets with identical dimensionality into one.
func Merge(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, ErrEmptyDataset
	}
	dim := parts[0].Dim()
	out := parts[0].Clone()
	for _, p := range parts[1:] {
		if p.Dim() != dim {
			return nil, fmt.Errorf("%w: dim %d vs %d", ErrShapeMismatch, p.Dim(), dim)
		}
		for i := range p.X {
			out.X = append(out.X, append([]float64(nil), p.X[i]...))
			out.Y = append(out.Y, p.Y[i])
		}
	}
	return out, nil
}

// FeaturesT returns the features as a d×N matrix (each record is a column),
// the orientation used by the paper's perturbation G(X) = RX + Ψ + Δ.
func (d *Dataset) FeaturesT() *matrix.Dense {
	m := matrix.New(d.Dim(), d.Len())
	for i, row := range d.X {
		for j, v := range row {
			m.Set(j, i, v)
		}
	}
	return m
}

// ReplaceFeaturesT overwrites the feature rows from a d×N matrix, leaving
// labels untouched. The matrix shape must match the dataset.
func (d *Dataset) ReplaceFeaturesT(m *matrix.Dense) error {
	if m.Rows() != d.Dim() || m.Cols() != d.Len() {
		return fmt.Errorf("%w: matrix %dx%d vs dataset %dx%d",
			ErrShapeMismatch, m.Rows(), m.Cols(), d.Dim(), d.Len())
	}
	for i := range d.X {
		for j := range d.X[i] {
			d.X[i][j] = m.At(j, i)
		}
	}
	return nil
}

// Column returns a copy of feature column j across all records.
func (d *Dataset) Column(j int) []float64 {
	out := make([]float64, d.Len())
	for i, row := range d.X {
		out[i] = row[j]
	}
	return out
}

// Split partitions the dataset into a training and test set, stratified by
// class so both sides keep the class mix. testFrac must be in (0, 1).
func (d *Dataset) Split(rng *rand.Rand, testFrac float64) (train, test *Dataset, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: testFrac %v out of (0,1)", testFrac)
	}
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	for c := 0; c < d.NumClasses(); c++ {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTest := int(float64(len(idx)) * testFrac)
		if nTest == 0 && len(idx) > 1 {
			nTest = 1
		}
		testIdx = append(testIdx, idx[:nTest]...)
		trainIdx = append(trainIdx, idx[nTest:]...)
	}
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, nil, fmt.Errorf("dataset: split produced an empty side (n=%d, testFrac=%v)", d.Len(), testFrac)
	}
	rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	rng.Shuffle(len(testIdx), func(i, j int) { testIdx[i], testIdx[j] = testIdx[j], testIdx[i] })
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}
