package esi

// IterativeSolverComponent is the step-wise, checkpointable counterpart of
// SolverComponent: instead of running a whole Krylov solve inside one port
// call, it exposes the iteration loop — Begin, Step(k), Solution — so a
// supervisor can checkpoint the solver between iterations and a crash
// mid-solve costs only the iterations since the last checkpoint, not the
// run. It implements cca.Checkpointable over the internal/ckpt wire
// format; distributed deployments replay the same bytes through the orb
// RestartPolicy's reserved restore key.

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cca"
	"repro/internal/ckpt"
	"repro/internal/linalg"
)

// TypeIterativeSolver is the provides-port type of the step-wise solver.
const TypeIterativeSolver = "esi.IterativeSolver"

// ckptSections: the checkpoint stream layout written by Checkpoint. The
// counters and the five vectors of the linalg.CGState carry the full
// mid-Krylov state — everything Step needs to continue exactly where the
// checkpointed instance stopped.
const (
	ckSecIt    = "it"
	ckSecRZ    = "rz"
	ckSecTol   = "tol"
	ckSecBNorm = "bnorm"
	ckSecB     = "b"
	ckSecX     = "x"
	ckSecR     = "r"
	ckSecZ     = "z"
	ckSecP     = "p"
	ckSecDone  = "done"
)

// IterativeSolverComponent provides an "esi.IterativeSolver" port named
// "solver" and uses an "A" operator port. Plain (unpreconditioned) CG
// with the default inner product: it holds one linalg.CGState, so an
// uninterrupted Step loop produces bit for bit the iterates of
// linalg.CG.Solve — and of SolverComponent "cg" with no preconditioner.
type IterativeSolverComponent struct {
	svc cca.Services

	mu      sync.Mutex
	tol     float64
	maxIter int

	started bool
	done    bool
	resid   float64
	cg      linalg.CGState
}

var (
	_ cca.Component      = (*IterativeSolverComponent)(nil)
	_ cca.Checkpointable = (*IterativeSolverComponent)(nil)
)

// NewIterativeSolverComponent creates a step-wise CG solver.
func NewIterativeSolverComponent() *IterativeSolverComponent {
	return &IterativeSolverComponent{tol: 1e-8, maxIter: 10000}
}

// SetServices implements cca.Component.
func (s *IterativeSolverComponent) SetServices(svc cca.Services) error {
	s.svc = svc
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "A", Type: TypeOperator}); err != nil {
		return err
	}
	return svc.AddProvidesPort(s, cca.PortInfo{Name: "solver", Type: TypeIterativeSolver})
}

// TypeName implements EsiObject.
func (s *IterativeSolverComponent) TypeName() string { return "esi.IterativeSolverComponent/cg" }

// SetTolerance sets the relative-residual convergence threshold.
func (s *IterativeSolverComponent) SetTolerance(tol float64) {
	s.mu.Lock()
	s.tol = tol
	s.mu.Unlock()
}

// Begin initializes the CG recurrence for A x = b from x₀ = 0.
func (s *IterativeSolverComponent) Begin(b []float64) error {
	op, release, err := operatorPort(s.svc, "iterative solver")
	if err != nil {
		return err
	}
	defer release()
	// A failed Begin leaves any solve in progress as it was.
	var cg linalg.CGState
	if err := cg.Begin(&opAdapter{p: op}, append([]float64(nil), b...), make([]float64, len(b)), linalg.Options{}); err != nil {
		return solveErrf("begin: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cg, s.started, s.done = cg, true, false
	s.resid = s.cg.Residual()
	return nil
}

// Step advances the recurrence by at most k iterations, stopping early on
// convergence. It returns the total iteration count so far, the current
// relative residual, and whether the solve has converged.
func (s *IterativeSolverComponent) Step(k int) (it int, resid float64, done bool, err error) {
	op, release, err := operatorPort(s.svc, "iterative solver")
	if err != nil {
		return 0, 0, false, err
	}
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return 0, 0, false, solveErrf("step before begin")
	}
	a := &opAdapter{p: op}
	for stepped := 0; stepped < k && !s.done && s.cg.It < s.maxIter; stepped++ {
		if s.resid > s.tol {
			if err := s.cg.Step(a); err != nil {
				if errors.Is(err, linalg.ErrBreakdown) {
					err = solveErrf("%v", err)
				}
				return s.cg.It, s.resid, s.done, err
			}
			s.resid = s.cg.Residual()
		}
		s.done = s.resid <= s.tol
	}
	return s.cg.It, s.resid, s.done, nil
}

// Solution returns a copy of the current iterate.
func (s *IterativeSolverComponent) Solution() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.cg.X...)
}

// Iterations reports the iterations completed so far.
func (s *IterativeSolverComponent) Iterations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cg.It
}

// Residual reports the current relative residual.
func (s *IterativeSolverComponent) Residual() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resid
}

// Converged reports whether the solve has reached tolerance.
func (s *IterativeSolverComponent) Converged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Checkpoint implements cca.Checkpointable: the complete mid-Krylov state
// as a ckpt stream. Call it between Steps (the framework's quiesce
// guarantees that during a swap; remote servants checkpoint between step
// invocations by construction).
func (s *IterativeSolverComponent) Checkpoint(wr io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := ckpt.NewWriter(wr)
	if !s.started {
		return w.Close() // an unstarted solver checkpoints to an empty stream
	}
	w.Uint64(ckSecIt, uint64(s.cg.It))
	w.Float64(ckSecRZ, s.cg.RZ)
	w.Float64(ckSecTol, s.tol)
	w.Float64(ckSecBNorm, s.cg.BNorm)
	var doneBit uint64
	if s.done {
		doneBit = 1
	}
	w.Uint64(ckSecDone, doneBit)
	w.Float64s(ckSecB, s.cg.B)
	w.Float64s(ckSecX, s.cg.X)
	w.Float64s(ckSecR, s.cg.R)
	w.Float64s(ckSecZ, s.cg.Z)
	w.Float64s(ckSecP, s.cg.P)
	return w.Close()
}

// Restore implements cca.Checkpointable.
func (s *IterativeSolverComponent) Restore(rd io.Reader) error {
	r, err := ckpt.NewReader(rd)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(r.Names()) == 0 {
		s.started, s.done = false, false
		return nil
	}
	it, done := read(&err, r.Uint64, ckSecIt), read(&err, r.Uint64, ckSecDone)
	tol := read(&err, r.Float64, ckSecTol)
	cg := linalg.CGState{
		B: read(&err, r.Float64s, ckSecB), X: read(&err, r.Float64s, ckSecX),
		R: read(&err, r.Float64s, ckSecR), Z: read(&err, r.Float64s, ckSecZ), P: read(&err, r.Float64s, ckSecP),
		RZ: read(&err, r.Float64, ckSecRZ), BNorm: read(&err, r.Float64, ckSecBNorm),
	}
	if err != nil {
		return err
	}
	n := len(cg.B)
	if len(cg.X) != n || len(cg.R) != n || len(cg.Z) != n || len(cg.P) != n {
		return fmt.Errorf("%w: inconsistent vector lengths", ckpt.ErrFormat)
	}
	cg.It = int(it)
	cg.Resume(linalg.Options{})
	s.cg, s.tol, s.done, s.started = cg, tol, done != 0, true
	s.resid = s.cg.Residual()
	return nil
}

// read returns f(name) unless an earlier read failed; *err keeps the
// first failure.
func read[T any](err *error, f func(string) (T, error), name string) (v T) {
	if *err == nil {
		v, *err = f(name)
	}
	return v
}
