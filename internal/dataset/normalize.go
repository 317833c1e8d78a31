package dataset

import (
	"fmt"
)

// Normalizer rescales features column-wise to [0, 1] by min-max, the
// normalization the paper applies before perturbation ("X denotes the
// normalized original dataset"). A fitted Normalizer can be applied to new
// data (e.g. a test set) using the training set's ranges.
type Normalizer struct {
	Min []float64
	Max []float64
}

// FitNormalizer computes per-column min/max over the dataset.
func FitNormalizer(d *Dataset) (*Normalizer, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	dim := d.Dim()
	n := &Normalizer{Min: make([]float64, dim), Max: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		n.Min[j] = d.X[0][j]
		n.Max[j] = d.X[0][j]
	}
	for _, row := range d.X {
		for j, v := range row {
			if v < n.Min[j] {
				n.Min[j] = v
			}
			if v > n.Max[j] {
				n.Max[j] = v
			}
		}
	}
	return n, nil
}

// Apply returns a normalized copy of the dataset. Values outside the fitted
// range map outside [0,1]; constant columns map to 0.
func (n *Normalizer) Apply(d *Dataset) (*Dataset, error) {
	if d.Dim() != len(n.Min) {
		return nil, fmt.Errorf("%w: normalizer dim %d vs dataset %d", ErrShapeMismatch, len(n.Min), d.Dim())
	}
	out := d.Clone()
	for i := range out.X {
		for j := range out.X[i] {
			span := n.Max[j] - n.Min[j]
			if span == 0 {
				out.X[i][j] = 0
				continue
			}
			out.X[i][j] = (out.X[i][j] - n.Min[j]) / span
		}
	}
	return out, nil
}

// Normalize is the one-shot convenience: fit on d and apply to d.
func Normalize(d *Dataset) (*Dataset, *Normalizer, error) {
	n, err := FitNormalizer(d)
	if err != nil {
		return nil, nil, err
	}
	out, err := n.Apply(d)
	if err != nil {
		return nil, nil, err
	}
	return out, n, nil
}
