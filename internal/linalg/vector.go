// Package linalg provides the sparse linear-algebra substrate that the CCA
// paper's motivating application depends on: the "solution of discretized
// linear systems Ax = b ... which are very large and have sparse coefficient
// matrices" (§2.2). It supplies CSR sparse matrices, Krylov solvers (CG,
// GMRES(m), BiCGStab), and preconditioners (Jacobi, SOR, ILU(0)) behind
// small interfaces so the ESI-style solver components (internal/esi) can
// expose them as interchangeable CCA components.
//
// Solvers are written against an Operator and a Dot function rather than a
// concrete matrix, so the same code runs serially and inside an SPMD
// parallel component (where Apply performs halo exchange and Dot performs a
// global reduction over internal/mpi).
package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/simd"
)

// Errors reported by solvers and matrix constructors.
var (
	ErrDim         = errors.New("linalg: dimension mismatch")
	ErrNonConverge = errors.New("linalg: solver did not converge")
	ErrBreakdown   = errors.New("linalg: solver breakdown")
	ErrSingular    = errors.New("linalg: singular pivot")
)

// Dot computes an inner product. A parallel component supplies a Dot that
// sums local products and reduces across its communicator.
type Dot func(a, b []float64) float64

// Dots computes several inner products at once: out[i] = a[i]ᵀb[i]. A
// parallel component supplies one that reduces every pair in a single
// message round, so products that become ready together cost one
// reduction instead of one each.
type Dots func(out []float64, a, b [][]float64)

// VecGrain is the serial-fallback threshold for the parallel vector
// kernels: vectors shorter than this run the plain serial loops. The
// elementwise ops are memory-bound (a handful of flops per cache line), so
// the cutoff is high — below it, chunk scheduling costs more than it buys.
const VecGrain = 8192

// DotPar is the parallel inner product: chunked partial sums over the
// shared worker pool, combined in fixed chunk order, so the result is
// deterministic run-to-run (it differs from a serial loop only by summation
// reassociation, O(n·eps)). Each chunk runs the simd.Dot kernel — SIMD
// within a chunk, scalar combine across chunks — so determinism holds on
// every backend: chunk boundaries depend only on (n, grain), and the
// kernel is bit-identical with and without AVX2. This is the default
// inner product installed by Options.fill.
func DotPar(a, b []float64) float64 {
	return par.ReduceFloat64(len(a), VecGrain, func(lo, hi int) float64 {
		return simd.Dot(a[lo:hi], b[lo:hi])
	})
}

// Norm2 returns the Euclidean norm of v under the given inner product.
func Norm2(dot Dot, v []float64) float64 { return math.Sqrt(dot(v, v)) }

// Axpy computes y += alpha*x. Large vectors update in parallel chunks;
// the operation is elementwise, so the result is bitwise identical to the
// serial loop.
func Axpy(alpha float64, x, y []float64) {
	par.For(len(x), VecGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// Scale multiplies v by alpha in place (parallel over chunks, elementwise
// exact).
func Scale(alpha float64, v []float64) {
	par.For(len(v), VecGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] *= alpha
		}
	})
}

// CopyVec copies src into a fresh slice.
func CopyVec(src []float64) []float64 { return append([]float64(nil), src...) }

// Operator is a linear operator y = A x on local vectors. In a parallel
// component, Apply is responsible for any communication (halo exchange)
// needed to produce the local rows of the product.
type Operator interface {
	// Apply computes y = A x. len(x) and len(y) must equal Cols/Rows.
	Apply(x, y []float64) error
	// Rows returns the local row count.
	Rows() int
}

// Preconditioner solves z = M⁻¹ r approximately.
type Preconditioner interface {
	// Solve computes z from r; len(z) == len(r).
	Solve(r, z []float64) error
	// Name identifies the preconditioner in reports.
	Name() string
}

// IdentityPrec is the no-op preconditioner.
type IdentityPrec struct{}

// Solve implements Preconditioner by copying r into z.
func (IdentityPrec) Solve(r, z []float64) error {
	copy(z, r)
	return nil
}

// Name implements Preconditioner.
func (IdentityPrec) Name() string { return "none" }

// Result reports the outcome of an iterative solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖/‖b‖
	Converged  bool
}

func (r Result) String() string {
	return fmt.Sprintf("iters=%d relres=%.3e converged=%v", r.Iterations, r.Residual, r.Converged)
}

// Options configures an iterative solve.
type Options struct {
	// Tol is the relative-residual convergence tolerance (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10·n).
	MaxIter int
	// Dot is the inner product (default DotPar, which is a serial loop
	// below VecGrain). SPMD components override it with a globally
	// reduced product.
	Dot Dot
	// Dots is the batched inner product CG uses where several products
	// are ready at once; it must agree with Dot pair by pair. The default
	// calls Dot once per pair, so a caller that sets only Dot sees exactly
	// one Dot call per product. SPMD components set it to reduce every
	// pair in one round.
	Dots Dots
	// Prec is the preconditioner (default identity).
	Prec Preconditioner
}

func (o Options) fill(n int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	if o.Dot == nil {
		o.Dot = DotPar
	}
	if o.Dots == nil {
		dot := o.Dot
		o.Dots = func(out []float64, a, b [][]float64) {
			for i := range out {
				out[i] = dot(a[i], b[i])
			}
		}
	}
	if o.Prec == nil {
		o.Prec = IdentityPrec{}
	}
	return o
}
