package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Solver is an iterative method for Ax = b. Implementations are stateless;
// all per-solve state lives on the stack so one Solver value can serve many
// components concurrently.
type Solver interface {
	// Solve overwrites x with the solution of A x = b, starting from the
	// initial guess already in x.
	Solve(a Operator, b, x []float64, opts Options) (Result, error)
	// Name identifies the method ("cg", "gmres", "bicgstab").
	Name() string
}

// NewSolver returns the named solver or an error listing the valid names.
func NewSolver(name string) (Solver, error) {
	switch name {
	case "cg":
		return CG{}, nil
	case "gmres":
		return GMRES{}, nil
	case "bicgstab":
		return BiCGStab{}, nil
	default:
		return nil, fmt.Errorf("linalg: unknown solver %q (want cg, gmres, or bicgstab)", name)
	}
}

// CG is the preconditioned conjugate-gradient method for symmetric
// positive-definite systems.
type CG struct{}

// Name implements Solver.
func (CG) Name() string { return "cg" }

// Solve implements Solver on a fresh CGState.
func (CG) Solve(a Operator, b, x []float64, opts Options) (Result, error) {
	var s CGState
	return s.Solve(a, b, x, opts)
}

// CGState is one preconditioned conjugate-gradient solve, advanced an
// iteration at a time: Solve is Begin plus a loop over Step. The
// exported fields are the whole recurrence, so a step-wise component can
// checkpoint them, set them back, and continue with Resume and Step.
// Begin reuses R, Z, P and the A·p scratch when their capacity allows, so
// a caller that keeps one CGState across solves of the same size
// allocates no vector after the first.
//
// Inner products: Begin takes bᵀb, rᵀr and rᵀz in one Options.Dots call,
// and each Step takes pᵀAp with Dot, then rᵀr and rᵀz in one Dots call
// after the preconditioner. Residual reads the cached rᵀr. With an SPMD
// Dots that is one reduction per half-iteration; with the default Dots
// each product is one Dot call.
type CGState struct {
	// B and X are the slices given to Begin (not copies); Step updates X.
	// R, Z and P are the residual, M⁻¹r and the search direction.
	B, X, R, Z, P []float64
	// RZ is rᵀz, BNorm is ‖b‖ (1 when b = 0), It counts completed steps.
	RZ, BNorm float64
	It        int

	rr float64 // rᵀr of the current R
	ap []float64
	o  Options
	// Operand and result scratch for Dots, so a step allocates none.
	da, db [3][]float64
	dout   [3]float64
}

// Solve is CG.Solve on s's vectors: Begin, then Step until the relative
// residual reaches opts.Tol or opts.MaxIter steps have run.
func (s *CGState) Solve(a Operator, b, x []float64, opts Options) (Result, error) {
	if err := s.Begin(a, b, x, opts); err != nil {
		return Result{}, err
	}
	for {
		res := s.Residual()
		if res <= s.o.Tol {
			return Result{Iterations: s.It, Residual: res, Converged: true}, nil
		}
		if s.It >= s.o.MaxIter {
			return Result{Iterations: s.It, Residual: res}, ErrNonConverge
		}
		if err := s.Step(a); err != nil {
			if errors.Is(err, ErrBreakdown) {
				return Result{Iterations: s.It, Residual: res}, err
			}
			return Result{}, err
		}
	}
}

// resize returns v resliced to n when its capacity allows, else a new
// zeroed slice of length n.
func resize(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// Begin starts the recurrence for A x = b from the guess in x:
// r₀ = b − A·x₀, z₀ = M⁻¹r₀, p₀ = z₀. opts supplies the inner products
// and the preconditioner; Tol and MaxIter are the caller's to check.
func (s *CGState) Begin(a Operator, b, x []float64, opts Options) error {
	n := a.Rows()
	if len(b) != n || len(x) != n {
		return fmt.Errorf("%w: cg n=%d b=%d x=%d", ErrDim, n, len(b), len(x))
	}
	s.o, s.B, s.X, s.It = opts.fill(n), b, x, 0
	s.R = resize(s.R, n)
	if err := a.Apply(x, s.R); err != nil {
		return err
	}
	for i := range s.R {
		s.R[i] = b[i] - s.R[i]
	}
	s.Z = resize(s.Z, n)
	if err := s.o.Prec.Solve(s.R, s.Z); err != nil {
		return err
	}
	s.P, s.ap = resize(s.P, n), resize(s.ap, n)
	copy(s.P, s.Z)
	s.da, s.db = [3][]float64{b, s.R, s.R}, [3][]float64{b, s.R, s.Z}
	s.o.Dots(s.dout[:], s.da[:], s.db[:])
	s.BNorm, s.rr, s.RZ = math.Sqrt(s.dout[0]), s.dout[1], s.dout[2]
	if s.BNorm == 0 {
		s.BNorm = 1
	}
	return nil
}

// Resume readies a state whose exported fields were set directly (from
// a checkpoint) for Step, with opts' inner products and preconditioner:
// it takes rᵀr, the one product the exported fields do not carry, with
// one Dot.
func (s *CGState) Resume(opts Options) {
	s.o = opts.fill(len(s.B))
	s.ap = resize(s.ap, len(s.B))
	s.rr = s.o.Dot(s.R, s.R)
}

// Residual returns ‖r‖/‖b‖, the relative residual of the current iterate,
// from the rᵀr that Begin, Step or Resume took.
func (s *CGState) Residual() float64 { return math.Sqrt(s.rr) / s.BNorm }

// Step runs one iteration. A zero or NaN pᵀAp is ErrBreakdown, returned
// before the state changes.
func (s *CGState) Step(a Operator) error {
	p, ap := s.P, s.ap
	if err := a.Apply(p, ap); err != nil {
		return err
	}
	pap := s.o.Dot(p, ap)
	if pap == 0 || math.IsNaN(pap) {
		return fmt.Errorf("%w: cg pᵀAp=%v at iter %d", ErrBreakdown, pap, s.It)
	}
	alpha := s.RZ / pap
	Axpy(alpha, p, s.X)
	Axpy(-alpha, ap, s.R)
	if err := s.o.Prec.Solve(s.R, s.Z); err != nil {
		return err
	}
	s.da, s.db = [3][]float64{s.R, s.R}, [3][]float64{s.R, s.Z}
	s.o.Dots(s.dout[:2], s.da[:2], s.db[:2])
	beta := s.dout[1] / s.RZ
	s.rr, s.RZ = s.dout[0], s.dout[1]
	z := s.Z
	for i := range p {
		p[i] = z[i] + beta*p[i]
	}
	s.It++
	return nil
}

// BiCGStab is the stabilized bi-conjugate gradient method for general
// nonsymmetric systems.
type BiCGStab struct{}

// Name implements Solver.
func (BiCGStab) Name() string { return "bicgstab" }

// Solve implements Solver.
func (BiCGStab) Solve(a Operator, b, x []float64, opts Options) (Result, error) {
	n := a.Rows()
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("%w: bicgstab n=%d b=%d x=%d", ErrDim, n, len(b), len(x))
	}
	o := opts.fill(n)

	r := make([]float64, n)
	if err := a.Apply(x, r); err != nil {
		return Result{}, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(o.Dot, b)
	if bnorm == 0 {
		bnorm = 1
	}
	rhat := CopyVec(r)
	var rho, alpha, omega float64 = 1, 1, 1
	v := make([]float64, n)
	p := make([]float64, n)
	phat := make([]float64, n)
	s := make([]float64, n)
	shat := make([]float64, n)
	t := make([]float64, n)

	for it := 0; it < o.MaxIter; it++ {
		res := Norm2(o.Dot, r) / bnorm
		if res <= o.Tol {
			return Result{Iterations: it, Residual: res, Converged: true}, nil
		}
		rhoNew := o.Dot(rhat, r)
		if rhoNew == 0 {
			return Result{Iterations: it, Residual: res}, fmt.Errorf("%w: bicgstab rho=0 at iter %d", ErrBreakdown, it)
		}
		if it == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		if err := o.Prec.Solve(p, phat); err != nil {
			return Result{}, err
		}
		if err := a.Apply(phat, v); err != nil {
			return Result{}, err
		}
		rhv := o.Dot(rhat, v)
		if rhv == 0 {
			return Result{Iterations: it, Residual: res}, fmt.Errorf("%w: bicgstab r̂ᵀv=0 at iter %d", ErrBreakdown, it)
		}
		alpha = rho / rhv
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sres := Norm2(o.Dot, s) / bnorm; sres <= o.Tol {
			Axpy(alpha, phat, x)
			return Result{Iterations: it + 1, Residual: sres, Converged: true}, nil
		}
		if err := o.Prec.Solve(s, shat); err != nil {
			return Result{}, err
		}
		if err := a.Apply(shat, t); err != nil {
			return Result{}, err
		}
		tt := o.Dot(t, t)
		if tt == 0 {
			return Result{Iterations: it, Residual: res}, fmt.Errorf("%w: bicgstab tᵀt=0 at iter %d", ErrBreakdown, it)
		}
		omega = o.Dot(t, s) / tt
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		if omega == 0 {
			res := Norm2(o.Dot, r) / bnorm
			return Result{Iterations: it + 1, Residual: res}, fmt.Errorf("%w: bicgstab omega=0", ErrBreakdown)
		}
	}
	res := Norm2(o.Dot, r) / bnorm
	if res <= o.Tol {
		return Result{Iterations: o.MaxIter, Residual: res, Converged: true}, nil
	}
	return Result{Iterations: o.MaxIter, Residual: res}, ErrNonConverge
}

// GMRES is the restarted generalized minimal-residual method GMRES(m) with
// right preconditioning, suitable for general nonsymmetric systems.
type GMRES struct{}

// gmresRestart is GMRES's restart length m: the Krylov basis it keeps
// before restarting from the current iterate.
const gmresRestart = 30

// Name implements Solver.
func (GMRES) Name() string { return "gmres" }

// Solve implements Solver.
func (GMRES) Solve(a Operator, b, x []float64, opts Options) (Result, error) {
	n := a.Rows()
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("%w: gmres n=%d b=%d x=%d", ErrDim, n, len(b), len(x))
	}
	o := opts.fill(n)
	m := gmresRestart
	if m > o.MaxIter {
		m = o.MaxIter
	}

	bnorm := Norm2(o.Dot, b)
	if bnorm == 0 {
		bnorm = 1
	}

	// Krylov basis and Hessenberg factors (Givens-rotated in place).
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	w := make([]float64, n)
	ztmp := make([]float64, n)

	totalIters := 0
	for totalIters < o.MaxIter {
		// r0 = b - A x
		if err := a.Apply(x, v[0]); err != nil {
			return Result{}, err
		}
		for i := range v[0] {
			v[0][i] = b[i] - v[0][i]
		}
		beta := Norm2(o.Dot, v[0])
		res := beta / bnorm
		if res <= o.Tol {
			return Result{Iterations: totalIters, Residual: res, Converged: true}, nil
		}
		Scale(1/beta, v[0])
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && totalIters < o.MaxIter; k++ {
			totalIters++
			// w = A M⁻¹ v_k  (right preconditioning)
			if err := o.Prec.Solve(v[k], ztmp); err != nil {
				return Result{}, err
			}
			if err := a.Apply(ztmp, w); err != nil {
				return Result{}, err
			}
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = o.Dot(w, v[i])
				Axpy(-h[i][k], v[i], w)
			}
			h[k+1][k] = Norm2(o.Dot, w)
			if h[k+1][k] != 0 {
				copy(v[k+1], w)
				Scale(1/h[k+1][k], v[k+1])
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation to annihilate h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				return Result{Iterations: totalIters, Residual: res}, fmt.Errorf("%w: gmres zero Hessenberg column", ErrBreakdown)
			}
			cs[k] = h[k][k] / denom
			sn[k] = h[k+1][k] / denom
			h[k][k] = denom
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] *= cs[k]

			res = math.Abs(g[k+1]) / bnorm
			if res <= o.Tol {
				k++
				break
			}
		}

		// Solve the k×k triangular system and update x: x += M⁻¹ (V_k y).
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			if h[i][i] == 0 {
				return Result{Iterations: totalIters, Residual: res}, fmt.Errorf("%w: gmres triangular solve", ErrSingular)
			}
			y[i] = s / h[i][i]
		}
		for i := range w {
			w[i] = 0
		}
		for j := 0; j < k; j++ {
			Axpy(y[j], v[j], w)
		}
		if err := o.Prec.Solve(w, ztmp); err != nil {
			return Result{}, err
		}
		Axpy(1, ztmp, x)

		if res <= o.Tol {
			// Recompute the true residual to guard against drift.
			if err := a.Apply(x, w); err != nil {
				return Result{}, err
			}
			for i := range w {
				w[i] = b[i] - w[i]
			}
			trueRes := Norm2(o.Dot, w) / bnorm
			if trueRes <= 10*o.Tol {
				return Result{Iterations: totalIters, Residual: trueRes, Converged: true}, nil
			}
		}
	}
	// Final residual.
	if err := a.Apply(x, w); err != nil {
		return Result{}, err
	}
	for i := range w {
		w[i] = b[i] - w[i]
	}
	res := Norm2(o.Dot, w) / bnorm
	if res <= o.Tol {
		return Result{Iterations: totalIters, Residual: res, Converged: true}, nil
	}
	return Result{Iterations: totalIters, Residual: res}, ErrNonConverge
}
