package linalg

import (
	"errors"
	"math"
	"testing"
)

// residual computes ‖b − A x‖₂ / ‖b‖₂.
func residual(t *testing.T, a Operator, b, x []float64) float64 {
	t.Helper()
	r := make([]float64, len(b))
	if err := a.Apply(x, r); err != nil {
		t.Fatal(err)
	}
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn) / math.Sqrt(bn)
}

// manufactured builds b = A·1 so the exact solution is the ones vector.
func manufactured(t *testing.T, a *CSR) []float64 {
	t.Helper()
	b := make([]float64, a.NRows)
	if err := a.Apply(Ones(a.NCols), b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCGPoisson(t *testing.T) {
	a := Poisson2D(16, 16)
	b := manufactured(t, a)
	x := make([]float64, a.NRows)
	res, err := CG{}.Solve(a, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("cg: %v (%v)", err, res)
	}
	if !res.Converged || res.Iterations == 0 {
		t.Fatalf("result: %v", res)
	}
	if r := residual(t, a, b, x); r > 1e-8 {
		t.Errorf("true residual %v", r)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}

func TestCGWithAllPreconditioners(t *testing.T) {
	a := Poisson2D(20, 20)
	b := manufactured(t, a)
	baseline := 0
	for _, name := range []string{"none", "jacobi", "sor", "ilu0"} {
		prec, err := NewPreconditioner(name, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := make([]float64, a.NRows)
		res, err := CG{}.Solve(a, b, x, Options{Tol: 1e-10, Prec: prec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := residual(t, a, b, x); r > 1e-8 {
			t.Errorf("%s: residual %v", name, r)
		}
		if name == "none" {
			baseline = res.Iterations
		} else if name == "ilu0" && res.Iterations >= baseline {
			t.Errorf("ilu0 took %d iters, unpreconditioned %d — no speedup", res.Iterations, baseline)
		}
	}
}

func TestGMRESNonsymmetric(t *testing.T) {
	a := AdvDiff2D(12, 12, 8, 4)
	b := manufactured(t, a)
	x := make([]float64, a.NRows)
	res, err := GMRES{}.Solve(a, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("gmres: %v (%v)", err, res)
	}
	if r := residual(t, a, b, x); r > 1e-8 {
		t.Errorf("true residual %v", r)
	}
}

func TestGMRESRestartStillConverges(t *testing.T) {
	a := AdvDiff2D(16, 16, 5, 5)
	b := manufactured(t, a)
	x := make([]float64, a.NRows)
	res, err := GMRES{}.Solve(a, b, x, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatalf("gmres(%d): %v (%v)", gmresRestart, err, res)
	}
	// More iterations than one cycle holds: the solve restarted.
	if res.Iterations <= gmresRestart {
		t.Errorf("converged in %d iterations, within one cycle of %d", res.Iterations, gmresRestart)
	}
	if r := residual(t, a, b, x); r > 1e-6 {
		t.Errorf("true residual %v", r)
	}
}

func TestGMRESWithILU(t *testing.T) {
	a := AdvDiff2D(16, 16, 10, -6)
	b := manufactured(t, a)
	prec, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	xPlain := make([]float64, a.NRows)
	resPlain, err := GMRES{}.Solve(a, b, xPlain, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	xPrec := make([]float64, a.NRows)
	resPrec, err := GMRES{}.Solve(a, b, xPrec, Options{Tol: 1e-10, Prec: prec})
	if err != nil {
		t.Fatalf("ilu0: %v", err)
	}
	if resPrec.Iterations >= resPlain.Iterations {
		t.Errorf("ilu0 %d iters >= plain %d", resPrec.Iterations, resPlain.Iterations)
	}
}

func TestBiCGStabNonsymmetric(t *testing.T) {
	a := AdvDiff2D(12, 12, 6, 2)
	b := manufactured(t, a)
	x := make([]float64, a.NRows)
	res, err := BiCGStab{}.Solve(a, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("bicgstab: %v (%v)", err, res)
	}
	if r := residual(t, a, b, x); r > 1e-7 {
		t.Errorf("true residual %v", r)
	}
}

func TestAllSolversOnSPD(t *testing.T) {
	a := RandomSPD(80, 4, 7)
	b := manufactured(t, a)
	for _, name := range []string{"cg", "gmres", "bicgstab"} {
		s, err := NewSolver(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q", s.Name())
		}
		x := make([]float64, a.NRows)
		if _, err := s.Solve(a, b, x, Options{Tol: 1e-9}); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r := residual(t, a, b, x); r > 1e-7 {
			t.Errorf("%s residual %v", name, r)
		}
	}
}

func TestNewSolverUnknown(t *testing.T) {
	if _, err := NewSolver("multigrid"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := Laplace1D(10)
	b := make([]float64, 10)
	x := Ones(10) // nonzero guess must be driven to solution 0
	res, err := CG{}.Solve(a, b, x, Options{Tol: 1e-12})
	if err != nil {
		t.Fatalf("cg: %v", err)
	}
	if !res.Converged {
		t.Fatalf("res: %v", res)
	}
	for i, v := range x {
		if math.Abs(v) > 1e-8 {
			t.Errorf("x[%d] = %v", i, v)
		}
	}
}

func TestSolveDimMismatch(t *testing.T) {
	a := Laplace1D(5)
	for _, name := range []string{"cg", "gmres", "bicgstab"} {
		s, _ := NewSolver(name)
		if _, err := s.Solve(a, make([]float64, 4), make([]float64, 5), Options{}); !errors.Is(err, ErrDim) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestCGNonConvergenceReported(t *testing.T) {
	a := Poisson2D(16, 16)
	b := manufactured(t, a)
	x := make([]float64, a.NRows)
	_, err := CG{}.Solve(a, b, x, Options{Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrNonConverge) {
		t.Errorf("err = %v, want ErrNonConverge", err)
	}
}

func TestCGWarmStart(t *testing.T) {
	a := Poisson2D(10, 10)
	b := manufactured(t, a)
	// Cold start.
	x := make([]float64, a.NRows)
	cold, err := CG{}.Solve(a, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the solution: should converge immediately.
	warm, err := CG{}.Solve(a, b, x, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations != 0 {
		t.Errorf("warm start took %d iters (cold %d)", warm.Iterations, cold.Iterations)
	}
}

func TestJacobiPreconditioner(t *testing.T) {
	a := mustCSR(t, 2, 2, []Triplet{{0, 0, 2}, {1, 1, 4}})
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 2)
	if err := j.Solve([]float64{2, 4}, z); err != nil {
		t.Fatal(err)
	}
	if z[0] != 1 || z[1] != 1 {
		t.Errorf("z = %v", z)
	}
	// Zero diagonal rejected.
	bad := mustCSR(t, 2, 2, []Triplet{{0, 0, 1}, {1, 0, 1}})
	if _, err := NewJacobi(bad); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v", err)
	}
}

func TestSORRejectsBadOmega(t *testing.T) {
	a := Laplace1D(4)
	for _, w := range []float64{0, -1, 2, 2.5} {
		if _, err := NewSOR(a, w, 1); err == nil {
			t.Errorf("omega %v accepted", w)
		}
	}
}

func TestILU0ExactForTriangularPattern(t *testing.T) {
	// For a matrix whose LU factors fit the sparsity pattern exactly
	// (tridiagonal), ILU(0) is a complete factorization: one preconditioned
	// "solve" gives the exact answer.
	a := Laplace1D(50)
	p, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := manufactured(t, a)
	z := make([]float64, 50)
	if err := p.Solve(b, z); err != nil {
		t.Fatal(err)
	}
	for i, v := range z {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("z[%d] = %v, want 1 (ILU0 should be exact on tridiagonal)", i, v)
		}
	}
}

func TestPreconditionerNames(t *testing.T) {
	a := Laplace1D(4)
	for _, name := range []string{"none", "jacobi", "sor", "ilu0"} {
		p, err := NewPreconditioner(name, a)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("Name() = %q, want %q", p.Name(), name)
		}
	}
	if _, err := NewPreconditioner("amg", a); err == nil {
		t.Error("unknown preconditioner accepted")
	}
}

func TestVectorKernels(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	if y[0] != 12 || y[2] != 36 {
		t.Errorf("axpy: %v", y)
	}
	w := []float64{1 - 12, 2 - 24, 3 - 36}
	Scale(0.5, w)
	if w[0] != (1-12)/2.0 {
		t.Errorf("scale: %v", w)
	}
	if d := dotSerial(x, x); d != 14 {
		t.Errorf("dot = %v", d)
	}
	if n := Norm2(dotSerial, []float64{3, 4}); n != 5 {
		t.Errorf("norm = %v", n)
	}
}

// TestCGStateStepsAreSolve drives Begin and Step by hand with a counting
// inner product and a Jacobi preconditioner: the iterate must be
// bit-identical to CG.Solve's, with the same Result, and Solve must make
// exactly 3 + 3·iters inner products — ‖b‖ and r₀ᵀz₀ in Begin, then
// ‖r‖, pᵀAp and rᵀz per iteration, and the final ‖r‖ that converges.
// Each inner product is one allreduce in an SPMD solve, so this pins
// mpi.allreduce_calls_per_step at the unit-test tier.
func TestCGStateStepsAreSolve(t *testing.T) {
	a := Poisson2D(96, 96) // 9216 rows: above VecGrain, so DotPar splits
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = math.Sin(0.37 * float64(i))
	}
	prec, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	dot := func(u, v []float64) float64 { calls++; return DotPar(u, v) }
	opts := Options{Tol: 1e-9, Dot: dot, Prec: prec}

	xs := make([]float64, a.NRows)
	want, err := CG{}.Solve(a, b, xs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3+3*want.Iterations {
		t.Errorf("Solve made %d inner products in %d iterations, want %d", calls, want.Iterations, 3+3*want.Iterations)
	}

	var s CGState
	xt := make([]float64, a.NRows)
	if err := s.Begin(a, b, xt, opts); err != nil {
		t.Fatal(err)
	}
	res := s.Residual()
	for res > opts.Tol {
		if err := s.Step(a); err != nil {
			t.Fatal(err)
		}
		res = s.Residual()
	}
	got := Result{Iterations: s.It, Residual: res, Converged: true}
	if got != want {
		t.Errorf("stepped %+v, Solve %+v", got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xt[i]) {
			t.Fatalf("x[%d]: stepped %v, Solve %v (not bit-identical)", i, xt[i], xs[i])
		}
	}
}

// TestCGStateSolveReusesVectors solves twice on one CGState: the second
// solve must keep the first one's R, Z and P storage and give CG.Solve's
// answer bit for bit.
func TestCGStateSolveReusesVectors(t *testing.T) {
	a := Poisson2D(12, 12)
	b := manufactured(t, a)
	var s CGState
	if _, err := s.Solve(a, b, make([]float64, a.NRows), Options{}); err != nil {
		t.Fatal(err)
	}
	r, z, p := &s.R[0], &s.Z[0], &s.P[0]
	x := make([]float64, a.NRows)
	got, err := s.Solve(a, b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &s.R[0] != r || &s.Z[0] != z || &s.P[0] != p {
		t.Error("second Solve replaced R, Z or P instead of reusing them")
	}
	xw := make([]float64, a.NRows)
	want, err := CG{}.Solve(a, b, xw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reused state %+v, fresh %+v", got, want)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xw[i]) {
			t.Fatalf("x[%d]: reused state %v, fresh %v", i, x[i], xw[i])
		}
	}
}

// TestCGStateResumeFromFields continues a solve from a state rebuilt out
// of the exported fields alone, as a checkpoint restore does, and must
// land on the uninterrupted iterate bit for bit.
func TestCGStateResumeFromFields(t *testing.T) {
	a := Poisson2D(12, 12)
	b := manufactured(t, a)
	run := func(s *CGState) {
		for s.Residual() > 1e-10 {
			if err := s.Step(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ref CGState
	if err := ref.Begin(a, b, make([]float64, a.NRows), Options{}); err != nil {
		t.Fatal(err)
	}
	run(&ref)

	var first CGState
	if err := first.Begin(a, b, make([]float64, a.NRows), Options{}); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if err := first.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	second := CGState{
		B: CopyVec(first.B), X: CopyVec(first.X), R: CopyVec(first.R),
		Z: CopyVec(first.Z), P: CopyVec(first.P),
		RZ: first.RZ, BNorm: first.BNorm, It: first.It,
	}
	second.Resume(Options{})
	run(&second)
	if second.It != ref.It {
		t.Errorf("resumed took %d iterations, uninterrupted %d", second.It, ref.It)
	}
	for i := range ref.X {
		if math.Float64bits(ref.X[i]) != math.Float64bits(second.X[i]) {
			t.Fatalf("x[%d]: resumed %v, uninterrupted %v", i, second.X[i], ref.X[i])
		}
	}
}

// TestCGStateBreakdownLeavesState: a zero pᵀAp is ErrBreakdown and the
// iterate and counter are untouched; Solve reports the residual it
// broke down at.
func TestCGStateBreakdownLeavesState(t *testing.T) {
	a := &CSR{NRows: 2, NCols: 2, RowPtr: []int{0, 0, 0}} // A = 0
	var s CGState
	if err := s.Begin(a, []float64{1, 2}, []float64{0, 0}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(a); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("step on A = 0: %v, want ErrBreakdown", err)
	}
	if s.It != 0 || s.X[0] != 0 || s.X[1] != 0 {
		t.Errorf("breakdown changed the state: it=%d x=%v", s.It, s.X)
	}
	res, err := (CG{}).Solve(a, []float64{1, 2}, []float64{0, 0}, Options{})
	if !errors.Is(err, ErrBreakdown) || res != (Result{Iterations: 0, Residual: 1}) {
		t.Errorf("Solve on A = 0: %+v, %v; want 0 iterations at residual 1, ErrBreakdown", res, err)
	}
}
