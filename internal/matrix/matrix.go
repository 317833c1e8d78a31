// Package matrix provides the dense linear-algebra substrate used by the
// SAP reproduction: matrix arithmetic, QR decomposition, symmetric
// eigendecomposition, a small Jacobi SVD, and Haar-distributed random
// orthogonal matrices — the rotation component R of the paper's §2
// perturbation G(X) = RX + Ψ + Δ is drawn here (QR of a Gaussian matrix
// with sign-corrected diagonal), and the PCA/ICA attacks of §2.2 run on the
// decompositions.
//
// Storage is row-major float64. Following the convention of mainstream Go
// numerics libraries, operations panic on dimension mismatch (a programmer
// error), while operations whose failure is a legitimate runtime condition
// (non-convergence) return errors.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrNoConvergence is returned when an iterative decomposition fails to
// converge within its sweep budget.
var ErrNoConvergence = errors.New("matrix: iteration did not converge")

// Dense is a dense, row-major matrix of float64 values. The zero value is an
// empty 0x0 matrix; use New or one of the constructors for anything else.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed r-by-c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from a slice of equal-length rows.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Columns returns a copy of every column as its own slice. All column slices
// share one flat backing allocation, and the matrix data is traversed once in row-major (sequential) order with
// strided writes, instead of cols× strided read passes; callers rebuilding
// record sets from a d×N feature matrix get O(1) allocations instead of one
// per record. The columns are copies; mutating them leaves m untouched.
func (m *Dense) Columns() [][]float64 {
	out := make([][]float64, m.cols)
	flat := make([]float64, m.rows*m.cols)
	for j := range out {
		out[j] = flat[j*m.rows : (j+1)*m.rows : (j+1)*m.rows]
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j][i] = v
		}
	}
	return out
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Equal reports exact element-wise equality of shape and values.
func (m *Dense) Equal(n *Dense) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if v != n.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports element-wise equality within absolute tolerance eps.
func (m *Dense) EqualApprox(n *Dense, eps float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > eps {
			return false
		}
	}
	return true
}

// Add returns m + n.
func (m *Dense) Add(n *Dense) *Dense {
	m.checkSameShape(n, "Add")
	out := m.Clone()
	for i, v := range n.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m - n.
func (m *Dense) Sub(n *Dense) *Dense {
	m.checkSameShape(n, "Sub")
	out := m.Clone()
	for i, v := range n.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns a*m.
func (m *Dense) Scale(a float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= a
	}
	return out
}

func (m *Dense) checkSameShape(n *Dense, op string) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, n.rows, n.cols))
	}
}

// Mul returns the matrix product m*n.
func (m *Dense) Mul(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := New(m.rows, n.cols)
	// ikj loop order: stride-1 access on both n and out.
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*n.cols : (i+1)*n.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			nrow := n.data[k*n.cols : (k+1)*n.cols]
			for j, nv := range nrow {
				orow[j] += mv * nv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*v.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("matrix: MulVec shape mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// T is shorthand for Transpose.
func (m *Dense) T() *Dense { return m.Transpose() }

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsOrthogonal reports whether mᵀm ≈ I within tolerance eps.
func (m *Dense) IsOrthogonal(eps float64) bool {
	if m.rows != m.cols {
		return false
	}
	return m.T().Mul(m).EqualApprox(Identity(m.rows), eps)
}

// Slice returns a copy of the submatrix rows [r0,r1), columns [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: Slice [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// Augment returns the horizontal concatenation [m | n].
func (m *Dense) Augment(n *Dense) *Dense {
	if m.rows != n.rows {
		panic(fmt.Sprintf("matrix: Augment row mismatch %d vs %d", m.rows, n.rows))
	}
	out := New(m.rows, m.cols+n.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.cols:], m.data[i*m.cols:(i+1)*m.cols])
		copy(out.data[i*out.cols+m.cols:], n.data[i*n.cols:(i+1)*n.cols])
	}
	return out
}

// String renders the matrix for debugging, one row per line.
func (m *Dense) String() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(m.rows))
	b.WriteByte('x')
	b.WriteString(strconv.Itoa(m.cols))
	b.WriteByte('\n')
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(m.data[i*m.cols+j], 'g', 6, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
