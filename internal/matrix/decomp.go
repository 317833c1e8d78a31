package matrix

import (
	"fmt"
	"math"
)

// QR holds a Householder QR decomposition A = Q R with Q orthogonal
// (rows×rows) and R upper trapezoidal (rows×cols).
type QR struct {
	Q *Dense
	R *Dense
}

// QRDecompose factors an m-by-n matrix with m >= n using Householder
// reflections.
func QRDecompose(a *Dense) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic(fmt.Sprintf("matrix: QRDecompose needs rows >= cols, got %dx%d", m, n))
	}
	r := a.Clone()
	q := Identity(m)
	v := make([]float64, m)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.data[i*n+k] * r.data[i*n+k]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := -norm
		if r.data[k*n+k] < 0 {
			alpha = norm
		}
		var vnorm2 float64
		for i := k; i < m; i++ {
			v[i] = r.data[i*n+k]
			if i == k {
				v[i] -= alpha
			}
			vnorm2 += v[i] * v[i]
		}
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I - 2 v vᵀ / (vᵀv) to R (columns k..n) ...
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i] * r.data[i*n+j]
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.data[i*n+j] -= f * v[i]
			}
		}
		// ... and accumulate Q = Q Hᵀ = Q H.
		for i := 0; i < m; i++ {
			var dot float64
			for j := k; j < m; j++ {
				dot += q.data[i*m+j] * v[j]
			}
			f := 2 * dot / vnorm2
			for j := k; j < m; j++ {
				q.data[i*m+j] -= f * v[j]
			}
		}
	}
	// Zero out the strictly-lower part of R to kill round-off residue.
	for i := 1; i < m; i++ {
		for j := 0; j < n && j < i; j++ {
			r.data[i*n+j] = 0
		}
	}
	return &QR{Q: q, R: r}
}

// EigenSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns eigenvalues in descending order and the
// matrix of corresponding eigenvectors (in columns): A = V diag(λ) Vᵀ.
func EigenSym(a *Dense) (values []float64, vectors *Dense, err error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("matrix: EigenSym of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	s := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += s.data[i*n+j] * s.data[i*n+j]
			}
		}
		if off < 1e-22*float64(n*n) {
			return sortEigen(s, v)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.data[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := s.data[p*n+p]
				aqq := s.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				// Rotate rows/cols p and q of S.
				for k := 0; k < n; k++ {
					skp := s.data[k*n+p]
					skq := s.data[k*n+q]
					s.data[k*n+p] = c*skp - sn*skq
					s.data[k*n+q] = sn*skp + c*skq
				}
				for k := 0; k < n; k++ {
					spk := s.data[p*n+k]
					sqk := s.data[q*n+k]
					s.data[p*n+k] = c*spk - sn*sqk
					s.data[q*n+k] = sn*spk + c*sqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.data[k*n+p]
					vkq := v.data[k*n+q]
					v.data[k*n+p] = c*vkp - sn*vkq
					v.data[k*n+q] = sn*vkp + c*vkq
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("eigensym after %d sweeps: %w", 100, ErrNoConvergence)
}

func sortEigen(s, v *Dense) ([]float64, *Dense, error) {
	n := s.rows
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = s.data[i*n+i]
	}
	// Selection sort descending, permuting eigenvector columns alongside.
	for i := 0; i < n-1; i++ {
		max := i
		for j := i + 1; j < n; j++ {
			if values[j] > values[max] {
				max = j
			}
		}
		if max != i {
			values[i], values[max] = values[max], values[i]
			for k := 0; k < n; k++ {
				v.data[k*n+i], v.data[k*n+max] = v.data[k*n+max], v.data[k*n+i]
			}
		}
	}
	return values, v, nil
}

// SVDResult holds a thin singular value decomposition A = U diag(σ) Vᵀ.
type SVDResult struct {
	U     *Dense    // rows×cols, orthonormal columns
	Sigma []float64 // cols singular values, descending
	V     *Dense    // cols×cols orthogonal
}

// SVD computes a thin SVD of an m-by-n matrix (m >= n) via one-sided Jacobi
// orthogonalization. Intended for the small matrices (d ≤ a few dozen) used
// by the attack models.
func SVD(a *Dense) (*SVDResult, error) {
	m, n := a.rows, a.cols
	if m < n {
		// Work on the transpose and swap U/V.
		res, err := SVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: res.V, Sigma: res.Sigma, V: res.U}, nil
	}
	u := a.Clone()
	v := Identity(n)
	const maxSweeps = 60
	converged := false
	for sweep := 0; sweep < maxSweeps && !converged; sweep++ {
		converged = true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram submatrix for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up := u.data[i*n+p]
					uq := u.data[i*n+q]
					app += up * up
					aqq += uq * uq
					apq += up * uq
				}
				if math.Abs(apq) <= 1e-15*math.Sqrt(app*aqq) {
					continue
				}
				converged = false
				tau := (aqq - app) / (2 * apq)
				t := math.Copysign(1, tau) / (math.Abs(tau) + math.Sqrt(1+tau*tau))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up := u.data[i*n+p]
					uq := u.data[i*n+q]
					u.data[i*n+p] = c*up - s*uq
					u.data[i*n+q] = s*up + c*uq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
	}
	if !converged {
		return nil, fmt.Errorf("svd after %d sweeps: %w", maxSweeps, ErrNoConvergence)
	}
	// Column norms are the singular values; normalize U's columns.
	sigma := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += u.data[i*n+j] * u.data[i*n+j]
		}
		sigma[j] = math.Sqrt(norm)
		if sigma[j] > 0 {
			for i := 0; i < m; i++ {
				u.data[i*n+j] /= sigma[j]
			}
		}
	}
	// Sort descending by singular value.
	for i := 0; i < n-1; i++ {
		max := i
		for j := i + 1; j < n; j++ {
			if sigma[j] > sigma[max] {
				max = j
			}
		}
		if max != i {
			sigma[i], sigma[max] = sigma[max], sigma[i]
			for k := 0; k < m; k++ {
				u.data[k*n+i], u.data[k*n+max] = u.data[k*n+max], u.data[k*n+i]
			}
			for k := 0; k < n; k++ {
				v.data[k*n+i], v.data[k*n+max] = v.data[k*n+max], v.data[k*n+i]
			}
		}
	}
	return &SVDResult{U: u, Sigma: sigma, V: v}, nil
}

// ApplyGivensLeft multiplies m in place on the left by the Givens rotation
// G(i, j, theta): rows i and j are mixed by the rotation. Used by the
// perturbation optimizer for local refinement of orthogonal matrices.
func (m *Dense) ApplyGivensLeft(i, j int, theta float64) {
	if i == j {
		panic("matrix: ApplyGivensLeft with i == j")
	}
	m.checkIndex(i, 0)
	m.checkIndex(j, 0)
	c, s := math.Cos(theta), math.Sin(theta)
	for k := 0; k < m.cols; k++ {
		a := m.data[i*m.cols+k]
		b := m.data[j*m.cols+k]
		m.data[i*m.cols+k] = c*a - s*b
		m.data[j*m.cols+k] = s*a + c*b
	}
}
