package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail of a distribution.
const minBeyond = 10

// tailCandidates are the percentiles considered for a distribution's tail,
// lowest first.
var tailCandidates = []float64{50, 90, 99, 99.9, 99.99}

// nearestRank is the 1-based rank of the nearest-rank p-th percentile
// (0 < p ≤ 100) among n samples: the smallest rank with at least p% of the
// samples at or below it.
func nearestRank(p float64, n int) int {
	// The epsilon absorbs binary rounding in p (99.9 × 1000 is not exactly
	// 99900 in float64).
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending),
// or 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond samples above it, and its value. ok is false when even the
// median leaves fewer.
func tailPercentile(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	for _, c := range tailCandidates {
		rank := nearestRank(c, n)
		if n-rank < minBeyond {
			break
		}
		p, v, ok = c, sorted[rank-1], true
	}
	return p, v, ok
}

// median returns the middle value of values (the mean of the two middle
// values for an even count), as Python's statistics.median does.
func median(values []float64) float64 {
	d := sortedCopy(values)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) returns with its default exclusive
// method; comparisons of runs are specified in those terms.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// quartileSpread is the distance between the first and third quartiles as a
// share of the median: the run-to-run spread a metric's bound must exceed.
func quartileSpread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(values []float64) []float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return d
}

// stamped is one request's latency with the offset from its phase's start
// that places it in a window: when it was due (open loop) or when it
// returned (closed loop).
type stamped struct{ at, lat time.Duration }

// windows cuts span into equal windows as close to width w as fit (at least
// one), groups the samples into them and returns the groups with their
// width; samples outside span are dropped.
func windows(samples []stamped, w, span time.Duration) ([]dist, time.Duration) {
	n := max(1, int(span/w))
	width := span / time.Duration(n)
	groups := make([][]time.Duration, n)
	for _, s := range samples {
		if i := int(s.at / width); s.at >= 0 && i < n {
			groups[i] = append(groups[i], s.lat)
		}
	}
	out := make([]dist, n)
	for i, g := range groups {
		out[i] = newDist(g)
	}
	return out, width
}

// medianOver is the median of f over the non-empty windows. A metric read
// this way moves only if most of the run moved, so a few seconds of
// interference from outside the benchmark do not shift it.
func medianOver(ws []dist, f func(dist) float64) float64 {
	var vals []float64
	for _, w := range ws {
		if len(w) > 0 {
			vals = append(vals, f(w))
		}
	}
	return median(vals)
}

func allOf(samples []stamped) dist {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.lat
	}
	return newDist(ds)
}

// dist is a sorted sample of durations, in milliseconds.
type dist []float64

func newDist(ds []time.Duration) dist {
	out := make(dist, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func (d dist) p(p float64) float64 { return percentile(d, p) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
