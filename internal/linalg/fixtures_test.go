package linalg

// Test fixtures: the dense reference solver the Krylov solvers are
// property-tested against, random SPD operators, a serial inner product
// and a symmetry check.

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a small dense matrix in row-major storage: the exact baseline
// the Krylov solvers are property-tested against.
type Dense struct {
	N    int
	Data []float64 // row-major N×N
}

// NewDense allocates a zero N×N matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// DenseFromCSR expands a sparse matrix (must be square).
func DenseFromCSR(m *CSR) (*Dense, error) {
	if m.NRows != m.NCols {
		return nil, fmt.Errorf("%w: dense from %dx%d", ErrDim, m.NRows, m.NCols)
	}
	d := NewDense(m.NRows)
	for r := 0; r < m.NRows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Data[r*m.NRows+m.Cols[k]] = m.Vals[k]
		}
	}
	return d, nil
}

// At returns element (r, c).
func (d *Dense) At(r, c int) float64 { return d.Data[r*d.N+c] }

// Set stores element (r, c).
func (d *Dense) Set(r, c int, v float64) { d.Data[r*d.N+c] = v }

// Solve solves A x = b by LU factorization with partial pivoting,
// overwriting neither input. It destroys a working copy of the matrix.
func (d *Dense) Solve(b []float64) ([]float64, error) {
	n := d.N
	if len(b) != n {
		return nil, fmt.Errorf("%w: dense solve n=%d b=%d", ErrDim, n, len(b))
	}
	a := append([]float64(nil), d.Data...)
	x := append([]float64(nil), b...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pmax := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("%w: dense pivot at column %d", ErrSingular, col)
		}
		if piv != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[piv*n+c] = a[piv*n+c], a[col*n+c]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		// Eliminate below.
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for c := col + 1; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= a[r*n+c] * x[c]
		}
		x[r] = s / a[r*n+r]
	}
	return x, nil
}

// MulVec computes y = A x.
func (d *Dense) MulVec(x []float64) ([]float64, error) {
	if len(x) != d.N {
		return nil, fmt.Errorf("%w: dense mulvec n=%d x=%d", ErrDim, d.N, len(x))
	}
	y := make([]float64, d.N)
	for r := 0; r < d.N; r++ {
		var s float64
		row := d.Data[r*d.N : (r+1)*d.N]
		for c, v := range row {
			s += v * x[c]
		}
		y[r] = s
	}
	return y, nil
}

// RandomSPD builds a random diagonally dominant symmetric matrix of size n
// with approximately nnzPerRow off-diagonal entries per row, using the
// given seed. Diagonal dominance guarantees positive-definiteness.
func RandomSPD(n, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var entries []Triplet
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64() - 0.5
			entries = append(entries, Triplet{i, j, v}, Triplet{j, i, v})
			av := v
			if av < 0 {
				av = -av
			}
			rowAbs[i] += av
			rowAbs[j] += av
		}
	}
	for i := 0; i < n; i++ {
		entries = append(entries, Triplet{i, i, rowAbs[i] + 1})
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		panic("linalg: RandomSPD assembly: " + err.Error())
	}
	return m
}

// dotSerial is the plain serial inner product.
func dotSerial(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// symmetricApprox reports whether m is numerically symmetric within tol.
func symmetricApprox(m *CSR, tol float64) bool {
	if m.NRows != m.NCols {
		return false
	}
	t := transpose(m)
	for r := 0; r < m.NRows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d := m.Vals[k] - t.At(r, m.Cols[k])
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// transpose returns mᵀ as a new CSR matrix.
func transpose(m *CSR) *CSR {
	t := &CSR{NRows: m.NCols, NCols: m.NRows, RowPtr: make([]int, m.NCols+1)}
	for _, c := range m.Cols {
		t.RowPtr[c+1]++
	}
	for r := 0; r < t.NRows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	t.Cols = make([]int, m.NNZ())
	t.Vals = make([]float64, m.NNZ())
	next := append([]int(nil), t.RowPtr[:t.NRows]...)
	for r := 0; r < m.NRows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.Cols[k]
			t.Cols[next[c]] = r
			t.Vals[next[c]] = m.Vals[k]
			next[c]++
		}
	}
	return t
}
