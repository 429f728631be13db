package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustCSR(t *testing.T, nr, nc int, entries []Triplet) *CSR {
	t.Helper()
	m, err := NewCSR(nr, nc, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCSRBasic(t *testing.T) {
	m := mustCSR(t, 2, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(1, 1) != 3 || m.At(1, 0) != 0 {
		t.Errorf("entries wrong: %v %v %v %v", m.At(0, 0), m.At(0, 2), m.At(1, 1), m.At(1, 0))
	}
}

func TestNewCSRSumsDuplicates(t *testing.T) {
	m := mustCSR(t, 1, 1, []Triplet{{0, 0, 1}, {0, 0, 2.5}})
	if m.NNZ() != 1 || m.At(0, 0) != 3.5 {
		t.Errorf("nnz=%d val=%v", m.NNZ(), m.At(0, 0))
	}
}

func TestNewCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Triplet{{2, 0, 1}}); !errors.Is(err, ErrDim) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewCSR(2, 2, []Triplet{{0, -1, 1}}); !errors.Is(err, ErrDim) {
		t.Errorf("err = %v", err)
	}
}

func TestCSRApply(t *testing.T) {
	// [[1 2],[3 4]] * [5, 6] = [17, 39]
	m := mustCSR(t, 2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}})
	y := make([]float64, 2)
	if err := m.Apply([]float64{5, 6}, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 17 || y[1] != 39 {
		t.Errorf("y = %v", y)
	}
	if err := m.Apply([]float64{1}, y); !errors.Is(err, ErrDim) {
		t.Errorf("dim err = %v", err)
	}
}

func TestCSRTranspose(t *testing.T) {
	m := mustCSR(t, 2, 3, []Triplet{{0, 1, 5}, {1, 0, 7}, {1, 2, -1}})
	tr := transpose(m)
	if tr.NRows != 3 || tr.NCols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.NRows, tr.NCols)
	}
	if tr.At(1, 0) != 5 || tr.At(0, 1) != 7 || tr.At(2, 1) != -1 {
		t.Errorf("transpose values wrong")
	}
	// (Aᵀ)ᵀ = A.
	back := transpose(tr)
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if back.At(r, c) != m.At(r, c) {
				t.Errorf("double transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestCSRDiagonal(t *testing.T) {
	m := Laplace1D(4)
	d := m.Diagonal()
	for i, v := range d {
		if v != 2 {
			t.Errorf("diag[%d] = %v", i, v)
		}
	}
}

func TestSymmetricApprox(t *testing.T) {
	if !symmetricApprox(Poisson2D(5, 5), 0) {
		t.Error("Poisson2D not symmetric")
	}
	if symmetricApprox(AdvDiff2D(5, 5, 10, 0), 1e-12) {
		t.Error("advection operator claimed symmetric")
	}
	if !symmetricApprox(RandomSPD(30, 3, 1), 1e-12) {
		t.Error("RandomSPD not symmetric")
	}
}

func TestPoisson2DRowSums(t *testing.T) {
	// Interior rows of the 5-point stencil sum to 0; boundary rows are
	// positive (Dirichlet).
	m := Poisson2D(5, 5)
	x := Ones(25)
	y := make([]float64, 25)
	if err := m.Apply(x, y); err != nil {
		t.Fatal(err)
	}
	// Center point (2,2) has all 4 neighbours: row sum 0.
	if y[2*5+2] != 0 {
		t.Errorf("interior row sum = %v", y[12])
	}
	// Corner (0,0) has 2 neighbours: 4-2 = 2.
	if y[0] != 2 {
		t.Errorf("corner row sum = %v", y[0])
	}
}

// Property: Apply agrees with a dense reference product for random small
// matrices.
func TestCSRApplyMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rngM := RandomSPD(12, 3, seed)
		x := make([]float64, 12)
		for i := range x {
			x[i] = float64((seed>>uint(i%8))%7) - 3
		}
		y := make([]float64, 12)
		if rngM.Apply(x, y) != nil {
			return false
		}
		for r := 0; r < 12; r++ {
			var want float64
			for c := 0; c < 12; c++ {
				want += rngM.At(r, c) * x[c]
			}
			if math.Abs(want-y[r]) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose preserves every entry.
func TestTransposeEntriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSPD(10, 2, seed)
		tr := transpose(m)
		for r := 0; r < 10; r++ {
			for c := 0; c < 10; c++ {
				if m.At(r, c) != tr.At(c, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
