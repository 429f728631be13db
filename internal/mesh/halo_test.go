package mesh

import (
	"cmp"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

func TestDecomposeInvariants(t *testing.T) {
	m := StructuredQuad(8, 8)
	const p = 4
	part := RCB{}.PartitionNodes(m, p)
	totalOwned := 0
	for r := 0; r < p; r++ {
		d, err := Decompose(m, part, p, r)
		if err != nil {
			t.Fatal(err)
		}
		totalOwned += d.NumOwned()
		// Every owned node maps back to its local index.
		for li, g := range d.Owned {
			if d.LocalIndex(g) != li {
				t.Fatalf("rank %d: owned %d -> %d, want %d", r, g, d.LocalIndex(g), li)
			}
			if part[g] != r {
				t.Fatalf("rank %d claims node %d owned by %d", r, g, part[g])
			}
		}
		// Ghosts are exactly off-rank neighbours of owned nodes.
		for _, g := range d.Ghosts {
			if part[g] == r {
				t.Fatalf("rank %d ghosts its own node %d", r, g)
			}
			adjacent := false
			for _, nb := range m.NodeNeighbors(g) {
				if part[nb] == r {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("rank %d ghost %d not adjacent to owned region", r, g)
			}
		}
	}
	if totalOwned != m.NumNodes() {
		t.Fatalf("owned total %d, want %d", totalOwned, m.NumNodes())
	}
}

func TestDecomposeErrors(t *testing.T) {
	m := StructuredQuad(2, 2)
	if _, err := Decompose(m, []int{0}, 1, 0); !errors.Is(err, ErrMesh) {
		t.Errorf("short part err = %v", err)
	}
	part := make([]int, m.NumNodes())
	if _, err := Decompose(m, part, 1, 5); !errors.Is(err, ErrMesh) {
		t.Errorf("bad rank err = %v", err)
	}
	part[0] = 9
	if _, err := Decompose(m, part, 2, 0); !errors.Is(err, ErrMesh) {
		t.Errorf("bad owner err = %v", err)
	}
}

func TestExchangeFillsGhosts(t *testing.T) {
	m := StructuredQuad(10, 10)
	const p = 4
	part := RCB{}.PartitionNodes(m, p)
	mpi.Run(p, func(c *mpi.Comm) {
		d, err := Decompose(m, part, p, c.Rank())
		if err != nil {
			t.Errorf("decompose: %v", err)
			return
		}
		// Field value = global node id; ghosts start poisoned.
		field := make([]float64, d.NumLocal())
		for li, g := range d.Owned {
			field[li] = float64(g)
		}
		for k := range d.Ghosts {
			field[len(d.Owned)+k] = math.NaN()
		}
		if err := d.Exchange(c, field); err != nil {
			t.Errorf("exchange: %v", err)
			return
		}
		for k, g := range d.Ghosts {
			if field[len(d.Owned)+k] != float64(g) {
				t.Errorf("rank %d ghost %d = %v, want %d", c.Rank(), g, field[len(d.Owned)+k], g)
				return
			}
		}
	})
}

// TestExchangeAllocations holds an exchange on the goroutine engine to one
// scratch slice plus the copy each Send makes: at most neighbours + 1
// allocations per rank per call.
func TestExchangeAllocations(t *testing.T) {
	m := StructuredQuad(10, 10)
	const p, rounds = 4, 50
	part := RCB{}.PartitionNodes(m, p)
	var budget atomic.Int64
	var before, after runtime.MemStats
	mpi.Run(p, func(c *mpi.Comm) {
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		d, err := Decompose(m, part, p, c.Rank())
		must(err)
		budget.Add(int64(rounds * (len(d.Neighbors()) + 1)))
		field := make([]float64, d.NumLocal())
		for range rounds { // grow the mailboxes to their steady size
			must(d.Exchange(c, field))
		}
		must(c.Barrier())
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		must(c.Barrier())
		for range rounds {
			must(d.Exchange(c, field))
		}
		must(c.Barrier())
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if got := after.Mallocs - before.Mallocs; got > uint64(budget.Load()) {
		t.Errorf("%d exchanges on %d ranks allocated %d times, budget %d", rounds, p, got, budget.Load())
	}
}

func TestDistOperatorMatchesSerial(t *testing.T) {
	m := StructuredQuad(9, 7)
	entries := graphLaplacianEntries(m)
	n := m.NumNodes()
	// Serial reference.
	tri := make([]linalg.Triplet, len(entries))
	for i, e := range entries {
		tri[i] = linalg.Triplet{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	serial, err := linalg.NewCSR(n, n, tri)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, n)
	if err := serial.Apply(x, want); err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 2, 3, 4} {
		part := RCB{}.PartitionNodes(m, p)
		got := make([]float64, n)
		mpi.Run(p, func(c *mpi.Comm) {
			d, err := Decompose(m, part, p, c.Rank())
			if err != nil {
				t.Errorf("decompose: %v", err)
				return
			}
			op, err := NewDistOperator(d, c, entries)
			if err != nil {
				t.Errorf("dist op: %v", err)
				return
			}
			xl := make([]float64, d.NumOwned())
			for li, g := range d.Owned {
				xl[li] = x[g]
			}
			yl := make([]float64, d.NumOwned())
			if err := op.Apply(xl, yl); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
			for li, g := range d.Owned {
				got[g] = yl[li] // per-node writes are disjoint across ranks
			}
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("p=%d: y[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestParallelCGMatchesSerial(t *testing.T) {
	m := StructuredQuad(12, 12)
	entries := graphLaplacianEntries(m)
	n := m.NumNodes()
	tri := make([]linalg.Triplet, len(entries))
	for i, e := range entries {
		tri[i] = linalg.Triplet{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	serial, err := linalg.NewCSR(n, n, tri)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	if err := serial.Apply(linalg.Ones(n), b); err != nil {
		t.Fatal(err)
	}
	xSerial := make([]float64, n)
	if _, err := (linalg.CG{}).Solve(serial, b, xSerial, linalg.Options{Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}

	const p = 4
	part := Greedy{}.PartitionNodes(m, p)
	xPar := make([]float64, n)
	mpi.Run(p, func(c *mpi.Comm) {
		d, err := Decompose(m, part, p, c.Rank())
		if err != nil {
			t.Errorf("decompose: %v", err)
			return
		}
		op, err := NewDistOperator(d, c, entries)
		if err != nil {
			t.Errorf("dist op: %v", err)
			return
		}
		bl := make([]float64, d.NumOwned())
		for li, g := range d.Owned {
			bl[li] = b[g]
		}
		xl := make([]float64, d.NumOwned())
		dot, _, _ := GlobalDot(c)
		res, err := (linalg.CG{}).Solve(op, bl, xl, linalg.Options{Tol: 1e-10, Dot: dot})
		if err != nil {
			t.Errorf("parallel cg: %v (%v)", err, res)
			return
		}
		for li, g := range d.Owned {
			xPar[g] = xl[li]
		}
	})
	for i := range xSerial {
		if math.Abs(xPar[i]-xSerial[i]) > 1e-6 {
			t.Fatalf("x[%d]: parallel %v vs serial %v", i, xPar[i], xSerial[i])
		}
	}
}

// A peer that dies while a survivor is inside a CG dot product reaches the
// survivor as the typed rank-death error, not a panic, so it can re-form
// its cohort. The operator is local, so GlobalDot's allreduce is the only
// communication the solve does.
func TestGlobalDotRankDeathReturnsTypedError(t *testing.T) {
	a := linalg.Poisson2D(4, 4)
	err := mpi.RunOver(2, "inproc://mesh-global-dot-death", func(c *mpi.Comm, p *mpi.Proc) {
		if c.Rank() == 1 {
			p.Kill()
			return
		}
		died := make(chan struct{}, 1)
		p.OnRankDeath(func(int, error) {
			select {
			case died <- struct{}{}:
			default:
			}
		})
		<-died
		dot, _, dotErr := GlobalDot(c)
		x := make([]float64, a.NRows)
		_, err := (linalg.CG{}).Solve(a, linalg.Ones(a.NRows), x, linalg.Options{Dot: dot})
		err = cmp.Or(dotErr(), err)
		var dead *mpi.RankDeadError
		if !errors.As(err, &dead) || dead.Rank != 1 {
			t.Errorf("CG through GlobalDot after rank 1 died = %v, want a *mpi.RankDeadError for rank 1", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalMatrixRejectsBeyondHalo(t *testing.T) {
	m := StructuredQuad(6, 1)
	part := make([]int, m.NumNodes())
	// Nodes 0..6 on a strip: left half rank 0, right half rank 1.
	for i := range part {
		if m.Coords[i][0] > 0.5 {
			part[i] = 1
		}
	}
	d, err := Decompose(m, part, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An entry coupling an owned node to a far-away node (not a mesh
	// neighbour) must be rejected.
	far := -1
	for i := range part {
		if part[i] == 1 && d.LocalIndex(i) < 0 {
			far = i
			break
		}
	}
	if far < 0 {
		t.Fatal("test setup: no far node found")
	}
	_, err = d.LocalMatrix([]Entry{{Row: d.Owned[0], Col: far, Val: 1}})
	if !errors.Is(err, ErrMesh) {
		t.Errorf("err = %v, want ErrMesh", err)
	}
}

// TestFusedDotsCGMatchesDot runs CG on a decomposed Poisson2D over 1–4
// goroutine ranks twice: through GlobalDot's batched hook, and through
// its Dot alone. Every element of a batched reduction takes the same
// combine tree as a scalar one (p = 3 folds a pair first), so the
// iterate, the iteration count and the residual must agree bit for bit.
// The hook runs once in Begin and once per iteration, and Dot once per
// iteration (pᵀAp): 1 + 2·It reductions, against 3 + 3·It unfused. At
// p = 1 the grid has more than linalg.VecGrain rows, so the local
// products run in chunks on the worker pool.
func TestFusedDotsCGMatchesDot(t *testing.T) {
	const nx, ny = 97, 95
	m := StructuredQuad(nx-1, ny-1) // node iy·nx + ix, as Poisson2D numbers rows
	a := linalg.Poisson2D(nx, ny)
	var entries []Entry
	for r := 0; r < a.NRows; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			entries = append(entries, Entry{r, a.Cols[k], a.Vals[k]})
		}
	}
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = math.Sin(0.37 * float64(i))
	}
	for p := 1; p <= 4; p++ {
		part := RCB{}.PartitionNodes(m, p)
		mpi.Run(p, func(c *mpi.Comm) {
			d, err := Decompose(m, part, p, c.Rank())
			if err != nil {
				t.Errorf("p=%d: decompose: %v", p, err)
				return
			}
			op, err := NewDistOperator(d, c, entries)
			if err != nil {
				t.Errorf("p=%d: dist op: %v", p, err)
				return
			}
			prec, err := linalg.NewJacobiFromDiag(op.Local.Diagonal()[:d.NumOwned()])
			if err != nil {
				t.Errorf("p=%d: jacobi: %v", p, err)
				return
			}
			bl := make([]float64, d.NumOwned())
			for li, g := range d.Owned {
				bl[li] = b[g]
			}
			dot, dots, dotErr := GlobalDot(c)
			dotCalls, dotsCalls := 0, 0
			countDot := func(u, v []float64) float64 { dotCalls++; return dot(u, v) }
			countDots := func(out []float64, u, v [][]float64) { dotsCalls++; dots(out, u, v) }

			xf, xd := make([]float64, d.NumOwned()), make([]float64, d.NumOwned())
			fused, err := (linalg.CG{}).Solve(op, bl, xf, linalg.Options{Tol: 1e-10, Dot: countDot, Dots: countDots, Prec: prec})
			if err != nil {
				t.Errorf("p=%d: fused cg: %v", p, cmp.Or(dotErr(), err))
				return
			}
			plain, err := (linalg.CG{}).Solve(op, bl, xd, linalg.Options{Tol: 1e-10, Dot: dot, Prec: prec})
			if err != nil {
				t.Errorf("p=%d: dot-only cg: %v", p, cmp.Or(dotErr(), err))
				return
			}
			if fused.Iterations != plain.Iterations || math.Float64bits(fused.Residual) != math.Float64bits(plain.Residual) {
				t.Errorf("p=%d rank %d: fused %+v, dot-only %+v", p, c.Rank(), fused, plain)
			}
			if dotsCalls != 1+fused.Iterations || dotCalls != fused.Iterations {
				t.Errorf("p=%d: %d iterations made %d batched and %d single reductions, want %d and %d",
					p, fused.Iterations, dotsCalls, dotCalls, 1+fused.Iterations, fused.Iterations)
			}
			for li := range xf {
				if math.Float64bits(xf[li]) != math.Float64bits(xd[li]) {
					t.Errorf("p=%d rank %d: x[%d] fused %v, dot-only %v", p, c.Rank(), d.Owned[li], xf[li], xd[li])
					return
				}
			}
		})
	}
}
