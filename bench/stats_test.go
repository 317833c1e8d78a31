package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRankPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {10.0001, 2}, {0.1, 1},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	// p99.9 of 1000 samples is rank 999 exactly, although 99.9 × 1000 is
	// not 99900 in binary floating point.
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got := percentile(thousand, 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{5, 0, false},       // even the median leaves only 2 beyond
		{20, 50, true},      // p90 leaves 2
		{100, 90, true},     // p99 leaves 1
		{1000, 99, true},    // p99 leaves 10, p99.9 leaves 1
		{10000, 99.9, true}, // p99.9 leaves 10
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, ok := tailPercentile(xs)
		if ok != c.wantOK || p != c.wantP {
			t.Errorf("n=%d: tail p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.wantOK)
			continue
		}
		if ok && float64(c.n)-v < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %v samples beyond", c.n, p, v, float64(c.n)-v)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q      [3]float64
		median float64
		spread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5, 1},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}, 2.5, 1},
		{[]float64{3.1, 1.0, 2.2}, [3]float64{1.0, 2.2, 3.1}, 2.2, 0.9545454545454545},
		{[]float64{5, 5}, [3]float64{5, 5, 5}, 5, 0},
		{[]float64{10, 12, 11, 13, 40, 9, 10.5, 11.5, 12.5, 10}, [3]float64{10, 11.25, 12.625}, 11.25, 0.23333333333333334},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q[0]) || !near(q2, c.q[1]) || !near(q3, c.q[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.q)
		}
		if m := median(c.in); !near(m, c.median) {
			t.Errorf("median(%v) = %v, want %v", c.in, m, c.median)
		}
		if s := quartileSpread(c.in); !near(s, c.spread) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.in, s, c.spread)
		}
	}
}

func TestWindowMedians(t *testing.T) {
	var samples []stamped
	// Three one-second windows of ten samples each: 1 ms, 2 ms and 50 ms
	// (a slow second), then one sample past the span that is dropped.
	for w, lat := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 50 * time.Millisecond} {
		for i := 0; i < 10; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*100*time.Millisecond
			samples = append(samples, stamped{at: at, lat: lat})
		}
	}
	samples = append(samples, stamped{at: 3 * time.Second, lat: time.Hour})
	ws, width := windows(samples, time.Second, 3*time.Second)
	if len(ws) != 3 || width != time.Second {
		t.Fatalf("%d windows of %v, want 3 of 1s", len(ws), width)
	}
	if got := medianOver(ws, func(d dist) float64 { return d.p(50) }); got != 2 {
		t.Errorf("median of window p50s = %v ms, want 2", got)
	}
	if got := ratePerWindow(samples, 3*time.Second, 4); got != 40 {
		t.Errorf("median window rate = %v records/s, want 40", got)
	}
	// A span shorter than the width is one window of the span's length.
	if ws, width := windows(samples, time.Second, 500*time.Millisecond); len(ws) != 1 || width != 500*time.Millisecond || len(ws[0]) != 5 {
		t.Errorf("half-second span: %d windows of %v, first holding %d", len(ws), width, len(ws[0]))
	}
	if got := ratePerWindow(samples, 500*time.Millisecond, 1); got != 10 {
		t.Errorf("half-second span rate = %v records/s, want 10", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
