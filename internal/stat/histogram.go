package stat

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-width binned frequency count over [Lo, Hi). Values
// outside the range are clamped into the first/last bin so no observation is
// silently dropped (the experiment figures report full distributions).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stat: histogram needs positive bin count, got %d", bins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stat: histogram range [%v,%v) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	idx := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// AddAll records a batch of observations.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Render draws an ASCII bar chart with the given maximum bar width. It is
// used by the figure harness to visualize distributions (paper Figure 2).
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%8.3f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
