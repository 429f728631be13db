package mpi

// Property tests for the process backend's arithmetic fidelity: collective
// reductions over the wire must produce bit-identical results — first
// against the serial reference fold on exact integer-valued data (where
// every combine order is exact, so any wire-introduced perturbation is a
// bug), then against the goroutine backend on arbitrary doubles (every
// backend runs the same recursive-doubling combine tree, so even the
// rounding must agree bit-for-bit; a difference means the codec altered a
// payload).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// serialFold is the reference reduction: a left-to-right fold of the
// per-rank contributions, the same reference the goroutine backend's
// par-vs-serial tests use.
func serialFold(t *testing.T, contribs [][]float64, op Op) []float64 {
	t.Helper()
	acc := slices.Clone(contribs[0])
	for _, c := range contribs[1:] {
		var err error
		if acc, err = op.combine(acc, c); err != nil {
			t.Fatalf("serial combine: %v", err)
		}
	}
	return acc
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runProc runs body as an n-rank job on the process backend (inproc
// scheme: real wire codec and mesh, no sockets).
func runProc(t *testing.T, n int, body func(c *Comm)) {
	t.Helper()
	addr := fmt.Sprintf("inproc://prop-%d", atomic.AddInt64(&confAddrSeq, 1))
	if err := RunOver(n, addr, func(c *Comm, _ *Proc) { body(c) }); err != nil {
		t.Fatal(err)
	}
}

func TestProcCollectivesBitIdenticalToSerial(t *testing.T) {
	const n, vec = 4, 33
	rng := rand.New(rand.NewSource(99))
	contribs := make([][]float64, n)
	for r := range contribs {
		contribs[r] = make([]float64, vec)
		for i := range contribs[r] {
			// Small integers: sums, maxima and minima are exact, so the
			// fold order cannot matter.
			contribs[r][i] = float64(rng.Intn(17) - 8)
		}
	}
	for _, op := range []Op{Sum, Max, Min} {
		want := serialFold(t, contribs, op)

		// Allreduce: every rank must hold the serial answer.
		results := make([][]float64, n)
		runProc(t, n, func(c *Comm) {
			out, err := c.AllreduceFloat64(contribs[c.Rank()], op)
			if err != nil {
				t.Errorf("%s allreduce: %v", op, err)
				return
			}
			results[c.Rank()] = out
		})
		for r, got := range results {
			if !bitsEqual(got, want) {
				t.Errorf("%s allreduce rank %d: %v, want %v", op, r, got, want)
			}
		}
	}
}

// balancedSum is ((a0+a1)+(a2+a3))+…: the combine tree recursive doubling
// evaluates when len(contribs) is a power of two.
func balancedSum(contribs [][]float64) []float64 {
	if len(contribs) == 1 {
		return contribs[0]
	}
	h := len(contribs) / 2
	lo, hi := balancedSum(contribs[:h]), balancedSum(contribs[h:])
	out := make([]float64, len(lo))
	for i := range out {
		out[i] = lo[i] + hi[i]
	}
	return out
}

func TestProcCollectivesBitIdenticalToGoroutine(t *testing.T) {
	// Arbitrary-magnitude doubles, whose sum depends on combine order.
	// Every backend executes the same combine tree, so every rank on every
	// backend must hold the goroutine backend's rank 0 bits exactly; this
	// fails if the wire codec perturbs so much as one mantissa bit. For
	// power-of-two sizes the tree is the balanced one, so those sizes are
	// held to it explicitly.
	const vec = 41
	rng := rand.New(rand.NewSource(2026))
	for _, n := range []int{2, 3, 4, 5, 6, 8} {
		contribs := make([][]float64, n)
		for r := range contribs {
			contribs[r] = make([]float64, vec)
			for i := range contribs[r] {
				contribs[r][i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
			}
		}
		var want []float64 // set by the first result for other sizes
		if n&(n-1) == 0 {
			want = balancedSum(contribs)
		}
		for _, b := range confBackends() {
			t.Run(fmt.Sprintf("n=%d/%s", n, b.name), func(t *testing.T) {
				results := make([][]float64, n)
				b.run(t, n, func(c *Comm) {
					out, err := c.AllreduceFloat64(contribs[c.Rank()], Sum)
					if err != nil {
						t.Errorf("allreduce: %v", err)
						return
					}
					results[c.Rank()] = out
				})
				if want == nil {
					want = results[0]
				}
				for r, got := range results {
					if !bitsEqual(got, want) {
						t.Errorf("rank %d: %v\n  want %v", r, got, want)
					}
				}
			})
		}
	}
}
