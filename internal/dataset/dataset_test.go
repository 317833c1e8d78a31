package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func mustTiny(t *testing.T) *Dataset {
	t.Helper()
	d, err := New("tiny", [][]float64{
		{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}, {6, 60},
	}, []int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", [][]float64{{1}}, []int{0, 1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("label mismatch err = %v, want ErrShapeMismatch", err)
	}
	if _, err := New("x", nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("empty err = %v, want ErrEmptyDataset", err)
	}
	if _, err := New("x", [][]float64{{1, 2}, {3}}, []int{0, 1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("ragged err = %v, want ErrShapeMismatch", err)
	}
}

func TestBasicAccessors(t *testing.T) {
	d := mustTiny(t)
	if d.Len() != 6 || d.Dim() != 2 || d.NumClasses() != 2 {
		t.Fatalf("Len/Dim/NumClasses = %d/%d/%d", d.Len(), d.Dim(), d.NumClasses())
	}
	counts := d.ClassCounts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("ClassCounts = %v", counts)
	}
	col := d.Column(1)
	if col[0] != 10 || col[5] != 60 {
		t.Fatalf("Column(1) = %v", col)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := mustTiny(t)
	c := d.Clone()
	c.X[0][0] = 99
	c.Y[0] = 1
	if d.X[0][0] != 1 || d.Y[0] != 0 {
		t.Fatal("Clone aliased storage")
	}
}

func TestSubsetCopies(t *testing.T) {
	d := mustTiny(t)
	s := d.Subset([]int{1, 3})
	if s.Len() != 2 || s.X[0][0] != 2 || s.Y[1] != 1 {
		t.Fatalf("Subset = %+v", s)
	}
	s.X[0][0] = 77
	if d.X[1][0] != 2 {
		t.Fatal("Subset aliased storage")
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	d := mustTiny(t)
	s := d.Shuffled(rand.New(rand.NewSource(1)))
	if s.Len() != d.Len() {
		t.Fatal("Shuffled changed length")
	}
	var sum float64
	for _, row := range s.X {
		sum += row[0]
	}
	if sum != 21 {
		t.Fatalf("Shuffled changed contents: sum = %v", sum)
	}
}

func TestMerge(t *testing.T) {
	d := mustTiny(t)
	m, err := Merge(d, d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 12 {
		t.Fatalf("Merge len = %d, want 12", m.Len())
	}
	other, _ := New("o", [][]float64{{1, 2, 3}}, []int{0})
	if _, err := Merge(d, other); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Merge dim mismatch err = %v", err)
	}
	if _, err := Merge(); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("Merge() err = %v", err)
	}
}

func TestFeaturesTRoundTrip(t *testing.T) {
	d := mustTiny(t)
	m := d.FeaturesT()
	if m.Rows() != 2 || m.Cols() != 6 {
		t.Fatalf("FeaturesT dims = %dx%d, want 2x6", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 30 {
		t.Fatalf("FeaturesT(1,2) = %v, want 30", m.At(1, 2))
	}
	scaled := m.Scale(2)
	if err := d.ReplaceFeaturesT(scaled); err != nil {
		t.Fatal(err)
	}
	if d.X[2][1] != 60 {
		t.Fatalf("ReplaceFeaturesT: X[2][1] = %v, want 60", d.X[2][1])
	}
	bad := m.Slice(0, 1, 0, 6)
	if err := d.ReplaceFeaturesT(bad); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("ReplaceFeaturesT shape err = %v", err)
	}
}

func TestSplitStratified(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p, err := ProfileByName("Iris")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(rng, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split sizes %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	if got := test.Len(); math.Abs(float64(got)-0.3*float64(d.Len())) > 3 {
		t.Errorf("test size %d not near 30%% of %d", got, d.Len())
	}
	// Stratification: each class present on both sides.
	for c, n := range train.ClassCounts() {
		if n == 0 {
			t.Errorf("class %d missing from train", c)
		}
	}
	for c, n := range test.ClassCounts() {
		if n == 0 {
			t.Errorf("class %d missing from test", c)
		}
	}
}

func TestSplitBadFrac(t *testing.T) {
	d := mustTiny(t)
	rng := rand.New(rand.NewSource(1))
	for _, frac := range []float64{0, 1, -0.2, 1.5} {
		if _, _, err := d.Split(rng, frac); err == nil {
			t.Errorf("Split(%v) succeeded, want error", frac)
		}
	}
}

func TestNormalize(t *testing.T) {
	d := mustTiny(t)
	norm, nz, err := Normalize(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range norm.X {
		for j := range norm.X[i] {
			if norm.X[i][j] < 0 || norm.X[i][j] > 1 {
				t.Fatalf("normalized value %v out of [0,1]", norm.X[i][j])
			}
		}
	}
	if norm.X[0][0] != 0 || norm.X[5][0] != 1 {
		t.Fatalf("min/max not mapped to 0/1: %v, %v", norm.X[0][0], norm.X[5][0])
	}
	// The map is x ↦ (x − Min)/(Max − Min), so it inverts to the original row.
	for j, want := range []float64{4, 40} {
		if got := nz.Min[j] + norm.X[3][j]*(nz.Max[j]-nz.Min[j]); math.Abs(got-want) > 1e-12 {
			t.Fatalf("feature %d maps back to %v, want %v", j, got, want)
		}
	}
}

func TestNormalizeConstantColumn(t *testing.T) {
	d, _ := New("const", [][]float64{{5, 1}, {5, 2}}, []int{0, 1})
	norm, _, err := Normalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if norm.X[0][0] != 0 || norm.X[1][0] != 0 {
		t.Fatal("constant column not mapped to 0")
	}
}

func TestNormalizerApplyToNewData(t *testing.T) {
	d := mustTiny(t)
	nz, err := FitNormalizer(d)
	if err != nil {
		t.Fatal(err)
	}
	test, _ := New("t", [][]float64{{0, 70}}, []int{0})
	out, err := nz.Apply(test)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range values extrapolate outside [0,1]; that is intended.
	if out.X[0][0] >= 0 || out.X[0][1] <= 1 {
		t.Fatalf("extrapolation = %v", out.X[0])
	}
	badDim, _ := New("b", [][]float64{{1, 2, 3}}, []int{0})
	if _, err := nz.Apply(badDim); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Apply dim err = %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := GenerateByName("Wine", rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "Wine")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.Dim() != d.Dim() {
		t.Fatalf("round trip dims %dx%d, want %dx%d", back.Len(), back.Dim(), d.Len(), d.Dim())
	}
	for i := range d.X {
		if back.Y[i] != d.Y[i] {
			t.Fatalf("label %d changed", i)
		}
		for j := range d.X[i] {
			if math.Abs(back.X[i][j]-d.X[i][j]) > 1e-12 {
				t.Fatalf("value (%d,%d) changed: %v vs %v", i, j, back.X[i][j], d.X[i][j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"empty", ""},
		{"header only", "a,b,class\n"},
		{"bad float", "a,class\nxyz,0\n"},
		{"bad label", "a,class\n1.5,zero\n"},
		{"negative label", "a,class\n1.5,-2\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(bytes.NewBufferString(tt.in), "x"); err == nil {
				t.Error("ReadCSV succeeded, want error")
			}
		})
	}
}
