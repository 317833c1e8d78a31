package stat

import (
	"math"
	"strings"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHistogramAdd(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0.5, 1, 3, 5, 7, 9, 9.99})
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
	wantCounts := []int{2, 1, 1, 1, 2}
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], want)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	h.Add(-5)  // below range -> first bin
	h.Add(2)   // above range -> last bin
	h.Add(1.0) // exactly hi -> last bin
	if h.Counts[0] != 1 {
		t.Errorf("below-range count = %d, want 1", h.Counts[0])
	}
	if h.Counts[3] != 2 {
		t.Errorf("above-range count = %d, want 2", h.Counts[3])
	}
	if h.Total() != 3 {
		t.Errorf("Total = %d, want 3", h.Total())
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
	if got := h.BinCenter(4); math.Abs(got-9) > 1e-12 {
		t.Errorf("BinCenter(4) = %v, want 9", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 1, 3)
	h.AddAll([]float64{0.1, 0.1, 0.5})
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Error("render has no bars")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("render rows:\n%s", out)
	}
	// Default width path.
	if h.Render(0) == "" {
		t.Error("Render(0) empty")
	}
}
