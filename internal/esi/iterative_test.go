package esi

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/cca/framework"
	"repro/internal/linalg"
)

// wireIterative assembles operator --A--> step-wise solver.
func wireIterative(t *testing.T, m *linalg.CSR) (*framework.Framework, *IterativeSolverComponent) {
	t.Helper()
	f := framework.New(framework.Options{TypeCheck: TypeChecker()})
	if err := f.Install("op", NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("itersolver", NewIterativeSolverComponent()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("itersolver", "A", "op", "A"); err != nil {
		t.Fatal(err)
	}
	comp, _ := f.Component("itersolver")
	return f, comp.(*IterativeSolverComponent)
}

// stepToConvergence drives Step in small batches until done.
func stepToConvergence(t *testing.T, s *IterativeSolverComponent) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		_, _, done, err := s.Step(3)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			return
		}
	}
	t.Fatal("step loop never converged")
}

// TestIterativeStepMatchesBatchSolve: the step-wise component and the
// one-shot "cg" component run the one linalg CG recurrence, so the same
// system takes the same iteration count to a bit-identical solution.
func TestIterativeStepMatchesBatchSolve(t *testing.T) {
	m := linalg.Poisson2D(16, 16)
	b := manufactured(t, m)

	// Batch solve through the one-shot CG component.
	_, batch := wireSolver(t, "cg", "", m)
	batch.SetTolerance(1e-10)
	xb := make([]float64, m.NRows)
	batchIters, err := batch.Solve(b, &xb)
	if err != nil {
		t.Fatal(err)
	}

	// Step-wise solve of the same system.
	_, iter := wireIterative(t, m)
	iter.SetTolerance(1e-10)
	if err := iter.Begin(b); err != nil {
		t.Fatal(err)
	}
	stepToConvergence(t, iter)
	xi := iter.Solution()

	if !iter.Converged() {
		t.Fatal("step-wise solver not converged")
	}
	if iter.Residual() > 1e-10 {
		t.Errorf("residual = %v", iter.Residual())
	}
	if it := iter.Iterations(); int32(it) != batchIters {
		t.Errorf("iterations = %d, batch took %d", it, batchIters)
	}
	for i := range xi {
		if math.Abs(xi[i]-1) > 1e-6 {
			t.Fatalf("x[%d] = %v, want 1", i, xi[i])
		}
		if math.Float64bits(xi[i]) != math.Float64bits(xb[i]) {
			t.Fatalf("step x[%d]=%v, batch %v (not bit-identical)", i, xi[i], xb[i])
		}
	}
}

func TestIterativeCheckpointResumesIdentically(t *testing.T) {
	m := linalg.Poisson2D(12, 12)
	b := manufactured(t, m)

	// Reference: run uninterrupted to convergence.
	_, ref := wireIterative(t, m)
	ref.SetTolerance(1e-10)
	if err := ref.Begin(b); err != nil {
		t.Fatal(err)
	}
	stepToConvergence(t, ref)

	// Interrupted: step a few iterations, checkpoint, restore into a FRESH
	// component, and finish there. The CG recurrence is deterministic, so
	// the restored run must land on bit-identical iterates.
	_, first := wireIterative(t, m)
	first.SetTolerance(1e-10)
	if err := first.Begin(b); err != nil {
		t.Fatal(err)
	}
	if _, _, done, err := first.Step(5); err != nil || done {
		t.Fatalf("early steps: done=%v err=%v", done, err)
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	_, second := wireIterative(t, m)
	if err := second.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if second.Iterations() != 5 {
		t.Fatalf("restored iteration count = %d, want 5", second.Iterations())
	}
	// Residual is ‖r‖ from the solver's cached rᵀr, which the checkpoint
	// does not carry: Restore takes it again, to the same bits.
	if g, w := second.Residual(), first.Residual(); math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("restored residual %v, checkpointed %v (not bit-identical)", g, w)
	}
	stepToConvergence(t, second)
	if g, w := second.Residual(), ref.Residual(); math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("final residual: resumed %v, uninterrupted %v (not bit-identical)", g, w)
	}

	want, got := ref.Solution(), second.Solution()
	if ref.Iterations() != second.Iterations() {
		t.Errorf("iterations: uninterrupted %d, resumed %d", ref.Iterations(), second.Iterations())
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("x[%d]: resumed %v != uninterrupted %v (not bit-identical)", i, got[i], want[i])
		}
	}
}

func TestIterativeStepBeforeBegin(t *testing.T) {
	m := linalg.Poisson2D(4, 4)
	_, s := wireIterative(t, m)
	_, _, _, err := s.Step(1)
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SolveError", err)
	}
}

func TestIterativeBeginRejectsWrongLength(t *testing.T) {
	m := linalg.Poisson2D(4, 4)
	_, s := wireIterative(t, m)
	var se *SolveError
	if err := s.Begin([]float64{1, 2, 3}); !errors.As(err, &se) {
		t.Fatalf("err = %v, want SolveError", err)
	}
	// A rejected Begin leaves the solve in progress untouched.
	if err := s.Begin(manufactured(t, m)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin([]float64{1, 2, 3}); !errors.As(err, &se) {
		t.Fatalf("err = %v, want SolveError", err)
	}
	if it, _, _, err := s.Step(1); err != nil || it != 3 {
		t.Fatalf("step after rejected begin: it=%d err=%v, want it=3", it, err)
	}
}

func TestIterativeUnstartedCheckpointRoundTrips(t *testing.T) {
	m := linalg.Poisson2D(4, 4)
	_, s := wireIterative(t, m)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	_, fresh := wireIterative(t, m)
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Still unstarted: stepping must fail exactly as before.
	if _, _, _, err := fresh.Step(1); err == nil {
		t.Fatal("step after empty restore succeeded")
	}
}

func TestIterativeBeginResetsAfterRestore(t *testing.T) {
	// A restored solver can be re-begun on a new RHS; state is rebuilt.
	m := linalg.Poisson2D(8, 8)
	b := manufactured(t, m)
	_, s := wireIterative(t, m)
	s.SetTolerance(1e-10)
	if err := s.Begin(b); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(b); err != nil {
		t.Fatal(err)
	}
	if s.Iterations() != 0 {
		t.Errorf("iterations after re-begin = %d", s.Iterations())
	}
	stepToConvergence(t, s)
	for i, v := range s.Solution() {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
}
