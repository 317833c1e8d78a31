package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestColumnsMatchesCol pins the bulk extractor against element-wise At
// on a non-square matrix, and checks the returned slices are
// copies (mutating them must not write through to the matrix).
func TestColumnsMatchesCol(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(5, 7)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	cols := m.Columns()
	if len(cols) != 7 {
		t.Fatalf("got %d columns, want 7", len(cols))
	}
	for j, col := range cols {
		if len(col) != m.Rows() {
			t.Fatalf("column %d has %d entries, want %d", j, len(col), m.Rows())
		}
		for i, v := range col {
			if want := m.At(i, j); v != want {
				t.Fatalf("column %d entry %d = %v, want %v", j, i, v, want)
			}
		}
	}
	cols[0][0] = 999
	if m.At(0, 0) == 999 {
		t.Fatal("mutating an extracted column wrote through to the matrix")
	}
	// The shared backing is capped per column: appending to one column must
	// not clobber its neighbor.
	grown := append(cols[1], -1)
	_ = grown
	if cols[2][0] == -1 {
		t.Fatal("appending to one extracted column clobbered the next")
	}
}

// TestPackFloat32RowsRoundTrip checks pack→unpack preserves every value to
// exactly its float32 rounding, across magnitudes and signs.
func TestPackFloat32RowsRoundTrip(t *testing.T) {
	rows := [][]float64{
		{0, 1, -1, 0.1234567890123},
		{1e-38, -1e38, math.Pi, -math.E},
		{1.5, -2.25, 3e7, 1.0 / 3.0},
	}
	packed, dim := PackFloat32Rows(rows)
	if dim != 4 {
		t.Fatalf("dim = %d, want 4", dim)
	}
	if len(packed) != 4*3*4 {
		t.Fatalf("packed %d bytes, want %d", len(packed), 4*3*4)
	}
	back, err := UnpackFloat32Rows(packed, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for j, v := range row {
			if want := float64(float32(v)); back[i][j] != want {
				t.Fatalf("value (%d,%d): %v unpacked to %v, want float32 rounding %v",
					i, j, v, back[i][j], want)
			}
		}
	}
}

// TestPackFloat32RowsFallbacks pins the (nil, 0) fallback contract: empty,
// zero-dimension and ragged inputs refuse to pack, so frame encoders fall
// back to the float64 form instead of panicking or sending torn payloads.
func TestPackFloat32RowsFallbacks(t *testing.T) {
	cases := map[string][][]float64{
		"empty":    {},
		"zero-dim": {{}, {}},
		"ragged":   {{1, 2}, {3}},
	}
	for name, rows := range cases {
		if b, dim := PackFloat32Rows(rows); b != nil || dim != 0 {
			t.Fatalf("%s input packed to (%d bytes, dim %d), want (nil, 0)", name, len(b), dim)
		}
	}
}

// TestUnpackFloat32RowsRejects covers the decoder's validation: torn byte
// counts, non-dividing dimensions and nonsense dims are typed errors.
func TestUnpackFloat32RowsRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		dim  int
	}{
		{"torn", make([]byte, 7), 1},
		{"non-dividing", make([]byte, 12), 2},
		{"zero-dim", make([]byte, 8), 0},
		{"negative-dim", make([]byte, 8), -3},
	}
	for _, tc := range cases {
		if _, err := UnpackFloat32Rows(tc.data, tc.dim); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("%s: err = %v, want ErrBadEncoding", tc.name, err)
		}
	}
	if rows, err := UnpackFloat32Rows(nil, 0); err != nil || rows != nil {
		t.Fatalf("empty payload at dim 0 = (%v, %v), want (nil, nil)", rows, err)
	}
}
