package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simd"
)

// These are the parallel-vs-serial equivalence properties for the kernels
// the par layer accelerates. Sizes deliberately straddle the serial
// cutoffs (VecGrain, SpMVGrain) so both the inline fallback and the chunked
// pool path are exercised, and the tolerance bounds the only permitted
// difference: summation reassociation in the reductions.

// equivSizes straddles both grain cutoffs.
var equivSizes = []int{1, 17, SpMVGrain - 1, SpMVGrain, SpMVGrain + 1,
	VecGrain - 1, VecGrain, VecGrain + 1, 3*VecGrain + 251}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDotParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range equivSizes {
		a, b := randVec(rng, n), randVec(rng, n)
		serial := dotSerial(a, b)
		got := DotPar(a, b)
		tol := 1e-12 * (1 + math.Abs(serial))
		if d := math.Abs(got - serial); d > tol {
			t.Errorf("n=%d: DotPar=%v dotSerial=%v diff=%v > %v", n, got, serial, d, tol)
		}
		// Determinism: repeated parallel evaluations must be bit-identical.
		for trial := 0; trial < 5; trial++ {
			if again := DotPar(a, b); again != got {
				t.Fatalf("n=%d: DotPar nondeterministic: %v vs %v", n, again, got)
			}
		}
	}
}

func TestNorm2ParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range equivSizes {
		v := randVec(rng, n)
		serial := Norm2(dotSerial, v)
		got := Norm2(DotPar, v)
		tol := 1e-12 * (1 + serial)
		if d := math.Abs(got - serial); d > tol {
			t.Errorf("n=%d: Norm2(DotPar)=%v serial=%v diff=%v > %v", n, got, serial, d, tol)
		}
	}
}

func TestAxpyParallelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range equivSizes {
		x := randVec(rng, n)
		y0 := randVec(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = y0[i] + 0.37*x[i]
		}
		got := CopyVec(y0)
		Axpy(0.37, x, got)
		for i := range got {
			if got[i] != want[i] { // elementwise: must be bitwise exact
				t.Fatalf("n=%d: Axpy[%d]=%v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCSRApplyParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 40, SpMVGrain - 1, SpMVGrain + 1, 4*SpMVGrain + 33} {
		// Random sparse matrix, ~8 nonzeros per row.
		var tr []Triplet
		for r := 0; r < n; r++ {
			for k := 0; k < 8; k++ {
				tr = append(tr, Triplet{Row: r, Col: rng.Intn(n), Val: rng.NormFloat64()})
			}
		}
		m, err := NewCSR(n, n, tr)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, n)
		got := make([]float64, n)
		if err := m.Apply(x, got); err != nil {
			t.Fatal(err)
		}
		// Serial reference sweep.
		want := make([]float64, n)
		for r := 0; r < n; r++ {
			var s float64
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				s += m.Vals[k] * x[m.Cols[k]]
			}
			want[r] = s
		}
		for r := range want {
			tol := 1e-12 * (1 + math.Abs(want[r]))
			if d := math.Abs(got[r] - want[r]); d > tol {
				t.Fatalf("n=%d row %d: parallel %v vs serial %v", n, r, got[r], want[r])
			}
		}
	}
}

// TestCSRApplyRowsMatchKernel holds Apply's inline loop for short rows to
// the row kernel's bits: every row length 0–24 occurs in each chunk of a
// matrix that runs as one chunk (SpMVGrain−1 rows) and of one the pool
// splits (SpMVGrain+1 rows). Every output must equal simd.SpMVRow on its
// row, and SpMVRowGo too below the kernel's 8-lane pass. Values span
// forty binades, so summing a row in any other order shows in the bits.
func TestCSRApplyRowsMatchKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{SpMVGrain - 1, SpMVGrain + 1} {
		var tr []Triplet
		for r := 0; r < n; r++ {
			cols := rng.Perm(n)[:r%25]
			slices.Sort(cols)
			for _, c := range cols {
				tr = append(tr, Triplet{Row: r, Col: c, Val: math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)})
			}
		}
		m, err := NewCSR(n, n, tr)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, n)
		y := make([]float64, n)
		if err := m.Apply(x, y); err != nil {
			t.Fatal(err)
		}
		for r := range y {
			lo, hi := m.RowPtr[r], m.RowPtr[r+1]
			vals, cols := m.Vals[lo:hi], m.Cols[lo:hi]
			if want := simd.SpMVRow(vals, cols, x); math.Float64bits(y[r]) != math.Float64bits(want) {
				t.Fatalf("n=%d row %d (%d nonzeros): Apply %v, SpMVRow %v", n, r, hi-lo, y[r], want)
			}
			if hi-lo >= 8 {
				continue
			}
			if want := simd.SpMVRowGo(vals, cols, x); math.Float64bits(y[r]) != math.Float64bits(want) {
				t.Fatalf("n=%d row %d (%d nonzeros): Apply %v, SpMVRowGo %v", n, r, hi-lo, y[r], want)
			}
		}
	}
}

// TestSolversWithParallelDot re-solves a well-conditioned system with the
// default (parallel) dot sized above VecGrain, checking the Krylov methods
// still converge to the true solution.
func TestSolversWithParallelDot(t *testing.T) {
	grid := 96 // 9216 unknowns > VecGrain
	a := Poisson2D(grid, grid)
	want := make([]float64, a.NCols)
	for i := range want {
		want[i] = math.Sin(0.01 * float64(i))
	}
	rhs := make([]float64, a.NRows)
	if err := a.Apply(want, rhs); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{CG{}, GMRES{}, BiCGStab{}} {
		x := make([]float64, a.NRows)
		res, err := s.Solve(a, rhs, x, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge: %v", s.Name(), res)
		}
		var maxErr float64
		for i := range x {
			maxErr = math.Max(maxErr, math.Abs(x[i]-want[i]))
		}
		if maxErr > 1e-6 {
			t.Errorf("%s: max abs error %v", s.Name(), maxErr)
		}
	}
}
