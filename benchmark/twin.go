package main

import (
	"fmt"
	"math"

	"repro/internal/hydro"
	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/mpi"
)

// twin is the Figure 1 timestep with no component machinery: the same
// arithmetic as hydro.FlowComponent.Step, in the same order, calling mesh,
// linalg and mpi directly. It serves three purposes:
//
//   - reference: its per-step Stats are what the ports-wired pipeline must
//     reproduce (exactly the same SolveIters at p=1);
//   - C1 guard: ports-wired step time ÷ twin step time is what the
//     component structure costs;
//   - layer budget: with a recorder it wraps every call into a layer in a
//     span, so self time per layer adds up to the step.
type twin struct {
	p    fig1Params
	comm *mpi.Comm
	dec  *mesh.Decomposition
	a    *linalg.CSR // NumOwned × NumLocal
	prec linalg.Preconditioner
	rec  *recorder

	boundary map[int]bool
	u        []float64 // owned+ghost field
	source   []float64
	work     []float64 // owned+ghost scratch for the operator
	step     int
	time     float64

	// Exact counts, the same on every run of the same inputs.
	applies, allreduces, halos int
}

// newTwin partitions m over the ranks of comm with the same partitioner the
// mesh component uses and assembles the same semi-implicit operator.
func newTwin(comm *mpi.Comm, m *mesh.Mesh, p fig1Params, rec *recorder) (*twin, error) {
	part := mesh.RCB{}.PartitionNodes(m, comm.Size())
	dec, err := mesh.Decompose(m, part, comm.Size(), comm.Rank())
	if err != nil {
		return nil, err
	}
	t := &twin{p: p, comm: comm, dec: dec, rec: rec, boundary: map[int]bool{}}
	for _, n := range m.BoundaryNodes() {
		t.boundary[n] = true
	}
	var entries []mesh.Entry
	for i := 0; i < m.NumNodes(); i++ {
		if t.boundary[i] {
			entries = append(entries, mesh.Entry{Row: i, Col: i, Val: 1})
			continue
		}
		deg := 0
		for _, j := range m.NodeNeighbors(i) {
			deg++
			if !t.boundary[j] {
				entries = append(entries, mesh.Entry{Row: i, Col: j, Val: -p.dt * p.nu})
			}
		}
		entries = append(entries, mesh.Entry{Row: i, Col: i, Val: 1 + p.dt*p.nu*float64(deg)})
	}
	if t.a, err = dec.LocalMatrix(entries); err != nil {
		return nil, err
	}
	if t.prec, err = linalg.NewJacobiFromDiag(t.a.Diagonal()[:dec.NumOwned()]); err != nil {
		return nil, err
	}
	t.u = make([]float64, dec.NumLocal())
	t.work = make([]float64, dec.NumLocal())
	t.source = make([]float64, dec.NumOwned())
	for li, g := range dec.Owned {
		if t.boundary[g] {
			continue
		}
		c := m.Coords[g]
		t.u[li] = p.initial(c[0], c[1])
		t.source[li] = p.source(c[0], c[1])
	}
	return t, dec.Exchange(comm, t.u)
}

// Rows and Apply make the twin the linalg.Operator of its own solve: ghost
// refresh, then the local sparse product, each in its own span.
func (t *twin) Rows() int { return t.dec.NumOwned() }

func (t *twin) Apply(x, y []float64) error {
	t.applies++
	copy(t.work[:t.dec.NumOwned()], x)
	if err := t.exchange(t.work); err != nil {
		return err
	}
	t.rec.begin("linalg.spmv")
	err := t.a.Apply(t.work, y)
	t.rec.end()
	return err
}

func (t *twin) exchange(field []float64) error {
	t.halos++
	t.rec.begin("mesh.halo")
	err := t.dec.Exchange(t.comm, field)
	t.rec.end()
	return err
}

func (t *twin) allreduce(x float64, op mpi.Op) (float64, error) {
	t.allreduces++
	t.rec.begin("mpi.allreduce")
	v, err := t.comm.AllreduceScalar(x, op)
	t.rec.end()
	return v, err
}

// dot is the parallel inner product: local product, then the reduction.
func (t *twin) dot(a, b []float64) float64 {
	t.rec.begin("linalg.dot")
	local := linalg.DotPar(a, b)
	t.rec.end()
	global, err := t.allreduce(local, mpi.Sum)
	if err != nil {
		panic("twin: global dot allreduce: " + err.Error())
	}
	return global
}

// Step advances one timestep: explicit upwind advection, the implicit
// diffusion solve, the four-way statistics reduction.
func (t *twin) Step() (hydro.Stats, error) {
	t.rec.nextOp()
	t.rec.begin("hydro.step")
	defer t.rec.end()
	m, dt, n := t.dec.M, t.p.dt, t.dec.NumOwned()
	if err := t.exchange(t.u); err != nil {
		return hydro.Stats{}, err
	}
	ustar := make([]float64, n)
	v := t.p.vel
	for li, g := range t.dec.Owned {
		if t.boundary[g] {
			continue
		}
		ui := t.u[li]
		acc, rate := 0.0, 0.0
		for _, j := range m.NodeNeighbors(g) {
			e := [2]float64{m.Coords[j][0] - m.Coords[g][0], m.Coords[j][1] - m.Coords[g][1]}
			h2 := e[0]*e[0] + e[1]*e[1]
			if h2 == 0 {
				continue
			}
			c := -(v[0]*e[0] + v[1]*e[1]) / h2
			if c > 0 {
				acc += c * (t.u[t.dec.LocalIndex(j)] - ui)
				rate += c
			}
		}
		if dt*rate > 1 {
			return hydro.Stats{}, fmt.Errorf("twin: advection CFL violated at node %d (dt·rate=%.3f)", g, dt*rate)
		}
		ustar[li] = ui + dt*acc + dt*t.source[li]
	}
	for li, g := range t.dec.Owned {
		if t.boundary[g] {
			ustar[li] = t.u[li]
		}
	}

	x := make([]float64, n)
	copy(x, t.u[:n])
	t.rec.begin("linalg.solve")
	res, err := (linalg.CG{}).Solve(t, ustar, x, linalg.Options{Tol: t.p.tol, Dot: t.dot, Prec: t.prec})
	t.rec.end()
	if err != nil {
		return hydro.Stats{}, fmt.Errorf("twin: diffusion solve: %w", err)
	}
	copy(t.u[:n], x)
	if err := t.exchange(t.u); err != nil {
		return hydro.Stats{}, err
	}

	t.step++
	t.time += dt
	lmin, lmax, lsum, lsq := math.Inf(1), math.Inf(-1), 0.0, 0.0
	for _, v := range t.u[:n] {
		if v < lmin {
			lmin = v
		}
		if v > lmax {
			lmax = v
		}
		lsum += v
		lsq += v * v
	}
	st := hydro.Stats{Step: t.step, Time: t.time, SolveIters: res.Iterations}
	if st.Min, err = t.allreduce(lmin, mpi.Min); err != nil {
		return hydro.Stats{}, err
	}
	if st.Max, err = t.allreduce(lmax, mpi.Max); err != nil {
		return hydro.Stats{}, err
	}
	gsum, err := t.allreduce(lsum, mpi.Sum)
	if err != nil {
		return hydro.Stats{}, err
	}
	gsq, err := t.allreduce(lsq, mpi.Sum)
	if err != nil {
		return hydro.Stats{}, err
	}
	st.Mean, st.Norm2 = gsum/float64(m.NumNodes()), math.Sqrt(gsq)
	return st, nil
}
