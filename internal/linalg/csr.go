package linalg

import (
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/simd"
)

// CSR is a sparse matrix in compressed-sparse-row form — the storage format
// the ESI-era solver libraries (ISIS++, PETSc) exchange. Row i's nonzeros
// occupy Cols/Vals[RowPtr[i]:RowPtr[i+1]], with column indices strictly
// increasing within a row.
type CSR struct {
	NRows, NCols int
	RowPtr       []int
	Cols         []int
	Vals         []float64
}

// Triplet is one (row, col, value) matrix entry for assembly.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from triplets. Duplicate (row,col) entries
// are summed, matching finite-element assembly semantics.
func NewCSR(nRows, nCols int, entries []Triplet) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= nRows || e.Col < 0 || e.Col >= nCols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrDim, e.Row, e.Col, nRows, nCols)
		}
	}
	sorted := append([]Triplet(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{NRows: nRows, NCols: nCols, RowPtr: make([]int, nRows+1)}
	for i := 0; i < len(sorted); {
		j := i
		var sum float64
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.Cols = append(m.Cols, sorted[i].Col)
		m.Vals = append(m.Vals, sum)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < nRows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// Rows implements Operator.
func (m *CSR) Rows() int { return m.NRows }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// SpMVGrain is the row-count threshold below which Apply stays serial.
// SpMV rows are cheap (the 5-point stencil rows here take Apply's inline
// loop, a few multiply-adds each), so the cutoff is sized to amortize one
// chunk dispatch over ~10k flops.
const SpMVGrain = 1024

// shortRow is the longest row Apply sums inline. simd.SpMVRow runs rows
// shorter than its 8-lane pass as SpMVRowGo's sequential tail on every
// backend, so the inline loop below is that tail, without the two calls.
const shortRow = 7

// Apply implements Operator: y = A x. Rows are partitioned into contiguous
// chunks executed on the shared worker pool — the row decomposition of
// Figure 1's parallel discretization component, applied inside one address
// space. Each output row is written by exactly one chunk: a row of at
// most shortRow nonzeros is summed left to right in the chunk body, a
// longer one by simd.SpMVRow. Both are the bits SpMVRowGo gives for the
// row, so the result is bitwise identical regardless of chunking, worker
// count, or kernel backend (the AVX2 gather kernel and its scalar
// fallback agree to the bit).
func (m *CSR) Apply(x, y []float64) error {
	if len(x) != m.NCols || len(y) != m.NRows {
		return fmt.Errorf("%w: apply %dx%d to x[%d], y[%d]", ErrDim, m.NRows, m.NCols, len(x), len(y))
	}
	par.For(m.NRows, SpMVGrain, func(lo, hi int) {
		rowPtr, cols, vals := m.RowPtr, m.Cols, m.Vals
		for r := lo; r < hi; r++ {
			klo, khi := rowPtr[r], rowPtr[r+1]
			if khi-klo > shortRow {
				y[r] = simd.SpMVRow(vals[klo:khi], cols[klo:khi], x)
				continue
			}
			var s float64
			for k := klo; k < khi; k++ {
				s += vals[k] * x[cols[k]]
			}
			y[r] = s
		}
	})
	return nil
}

// At returns the entry (r, c), zero if not stored.
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	k := lo + sort.SearchInts(m.Cols[lo:hi], c)
	if k < hi && m.Cols[k] == c {
		return m.Vals[k]
	}
	return 0
}

// Diagonal extracts the main diagonal.
func (m *CSR) Diagonal() []float64 {
	n := m.NRows
	if m.NCols < n {
		n = m.NCols
	}
	d := make([]float64, n)
	for r := 0; r < n; r++ {
		d[r] = m.At(r, r)
	}
	return d
}
