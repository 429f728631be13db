package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDenseSolveKnown(t *testing.T) {
	// [[2 1],[1 3]] x = [3 4] -> x = [1, 1]
	d := NewDense(2)
	d.Set(0, 0, 2)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(1, 1, 3)
	x, err := d.Solve([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestDenseSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	d := NewDense(2)
	d.Set(0, 0, 0)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(1, 1, 0)
	x, err := d.Solve([]float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 5 {
		t.Errorf("x = %v", x)
	}
}

func TestDenseSolveSingular(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 1)
	d.Set(0, 1, 2)
	d.Set(1, 0, 2)
	d.Set(1, 1, 4)
	if _, err := d.Solve([]float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v", err)
	}
}

func TestDenseFromCSRAndMulVec(t *testing.T) {
	m := Laplace1D(5)
	d, err := DenseFromCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	want := make([]float64, 5)
	if err := m.Apply(x, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mulvec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Non-square rejected.
	rect, err := NewCSR(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseFromCSR(rect); !errors.Is(err, ErrDim) {
		t.Errorf("err = %v", err)
	}
}

// Property: CG's solution on random SPD systems matches dense LU to
// engineering precision.
func TestCGMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSPD(25, 3, seed)
		d, err := DenseFromCSR(m)
		if err != nil {
			return false
		}
		b := make([]float64, 25)
		for i := range b {
			b[i] = float64((seed>>(uint(i)%16))%11) - 5
		}
		exact, err := d.Solve(b)
		if err != nil {
			return false
		}
		x := make([]float64, 25)
		if _, err := (CG{}).Solve(m, b, x, Options{Tol: 1e-12}); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-exact[i]) > 1e-6*(1+math.Abs(exact[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: GMRES matches dense LU on random diagonally dominant
// nonsymmetric systems.
func TestGMRESMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		// Nonsymmetric diag-dominant: SPD base plus skew advection part.
		base := RandomSPD(20, 3, seed)
		var tris []Triplet
		for r := 0; r < 20; r++ {
			for k := base.RowPtr[r]; k < base.RowPtr[r+1]; k++ {
				v := base.Vals[k]
				if base.Cols[k] > r {
					v *= 1.5 // break symmetry
				}
				tris = append(tris, Triplet{r, base.Cols[k], v})
			}
			tris = append(tris, Triplet{r, r, 2}) // extra dominance
		}
		m, err := NewCSR(20, 20, tris)
		if err != nil {
			return false
		}
		d, err := DenseFromCSR(m)
		if err != nil {
			return false
		}
		b := make([]float64, 20)
		for i := range b {
			b[i] = math.Sin(float64(seed%97) + float64(i))
		}
		exact, err := d.Solve(b)
		if err != nil {
			return false
		}
		x := make([]float64, 20)
		if _, err := (GMRES{}).Solve(m, b, x, Options{Tol: 1e-12}); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-exact[i]) > 1e-6*(1+math.Abs(exact[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: LU solve then multiply recovers the right-hand side.
func TestDenseSolveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSPD(12, 2, seed)
		d, err := DenseFromCSR(m)
		if err != nil {
			return false
		}
		b := make([]float64, 12)
		for i := range b {
			b[i] = float64(i) - 6
		}
		x, err := d.Solve(b)
		if err != nil {
			return false
		}
		back, err := d.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
