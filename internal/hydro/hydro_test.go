package hydro

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/mesh"
	"repro/internal/mpi"
)

// buildPipeline wires mesh -> flow on each cohort rank and returns the flow
// port. Uses the cohort framework so port registrations are verified
// consistent across ranks.
func buildPipeline(t *testing.T, comm *mpi.Comm, m *mesh.Mesh, cfg Config) FlowPort {
	t.Helper()
	c := framework.NewCohort(comm, framework.Options{})
	err := c.InstallParallel("mesh", func(rank int) cca.Component {
		mc, err := NewMeshComponent(m, "rcb", comm.Size(), rank)
		if err != nil {
			t.Errorf("mesh: %v", err)
			return &MeshComponent{}
		}
		return mc
	})
	if err != nil {
		t.Fatalf("install mesh: %v", err)
	}
	err = c.InstallParallel("flow", func(rank int) cca.Component {
		fc, err := NewFlowComponent(comm, cfg)
		if err != nil {
			t.Errorf("flow: %v", err)
			return nil
		}
		return fc
	})
	if err != nil {
		t.Fatalf("install flow: %v", err)
	}
	if err := c.VerifyPorts("flow"); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := c.ConnectParallel("flow", "mesh", "mesh", "mesh"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	comp, _ := c.F.Component("flow")
	return comp.(FlowPort)
}

func TestDiffusionDecaysAndStaysBounded(t *testing.T) {
	m := mesh.StructuredQuad(12, 12)
	mpi.Run(2, func(comm *mpi.Comm) {
		flow := buildPipeline(t, comm, m, Config{Nu: 1, Tol: 1e-10})
		var prev Stats
		for i := 0; i < 5; i++ {
			st, err := flow.Step(0.05)
			if err != nil {
				t.Errorf("step %d: %v", i, err)
				return
			}
			if st.Min < -1e-9 || st.Max > 1+1e-9 {
				t.Errorf("step %d: field out of bounds [%v, %v]", i, st.Min, st.Max)
				return
			}
			if i > 0 && st.Max > prev.Max+1e-12 {
				t.Errorf("step %d: max grew %v -> %v (diffusion must decay)", i, prev.Max, st.Max)
				return
			}
			if st.SolveIters == 0 {
				t.Errorf("step %d: no solver iterations", i)
			}
			prev = st
		}
		if math.Abs(flow.Time()-0.25) > 1e-12 {
			t.Errorf("time = %v", flow.Time())
		}
	})
}

func TestParallelMatchesSerial(t *testing.T) {
	m := mesh.TriangulatedRect(8, 8)
	cfg := Config{Nu: 0.5, Vel: [2]float64{1, 0.5}, Tol: 1e-12}
	const steps = 3
	const dt = 0.01

	// Serial reference (1 rank).
	serialField := make([]float64, m.NumNodes())
	mpi.Run(1, func(comm *mpi.Comm) {
		flow := buildPipeline(t, comm, m, cfg)
		for i := 0; i < steps; i++ {
			if _, err := flow.Step(dt); err != nil {
				t.Errorf("serial step: %v", err)
				return
			}
		}
		fc := flow.(*FlowComponent)
		for li, g := range fc.dec.Owned {
			serialField[g] = fc.u[li]
		}
	})

	for _, p := range []int{2, 3, 4} {
		parField := make([]float64, m.NumNodes())
		mpi.Run(p, func(comm *mpi.Comm) {
			flow := buildPipeline(t, comm, m, cfg)
			for i := 0; i < steps; i++ {
				if _, err := flow.Step(dt); err != nil {
					t.Errorf("p=%d step: %v", p, err)
					return
				}
			}
			fc := flow.(*FlowComponent)
			for li, g := range fc.dec.Owned {
				parField[g] = fc.u[li]
			}
		})
		for i := range serialField {
			if math.Abs(parField[i]-serialField[i]) > 1e-8 {
				t.Fatalf("p=%d: node %d: parallel %v vs serial %v", p, i, parField[i], serialField[i])
			}
		}
	}
}

func TestPureDiffusionSymmetryPreserved(t *testing.T) {
	// With no advection and a centered bump on a symmetric mesh, the field
	// stays symmetric under x -> 1-x.
	const n = 10
	m := mesh.StructuredQuad(n, n)
	mpi.Run(2, func(comm *mpi.Comm) {
		flow := buildPipeline(t, comm, m, Config{Nu: 1, Tol: 1e-12})
		for i := 0; i < 3; i++ {
			if _, err := flow.Step(0.02); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
		fc := flow.(*FlowComponent)
		field := make([]float64, m.NumNodes())
		local := make([]float64, m.NumNodes())
		for li, g := range fc.dec.Owned {
			local[g] = fc.u[li]
		}
		sum, err := comm.AllreduceFloat64(local, mpi.Sum)
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		copy(field, sum)
		if comm.Rank() != 0 {
			return
		}
		for iy := 0; iy <= n; iy++ {
			for ix := 0; ix <= n; ix++ {
				a := field[iy*(n+1)+ix]
				b := field[iy*(n+1)+(n-ix)]
				if math.Abs(a-b) > 1e-9 {
					t.Errorf("asymmetry at (%d,%d): %v vs %v", ix, iy, a, b)
					return
				}
			}
		}
	})
}

func TestAdvectionMovesBump(t *testing.T) {
	// Strong +x advection must shift the field's center of mass right.
	m := mesh.StructuredQuad(16, 16)
	mpi.Run(2, func(comm *mpi.Comm) {
		flow := buildPipeline(t, comm, m, Config{Nu: 0.05, Vel: [2]float64{4, 0}, Tol: 1e-10})
		centerX := func(fc *FlowComponent) float64 {
			var sxw, sw float64
			for li, g := range fc.dec.Owned {
				w := fc.u[li]
				sxw += w * m.Coords[g][0]
				sw += w
			}
			gx, err := comm.AllreduceScalar(sxw, mpi.Sum)
			if err != nil {
				t.Errorf("reduce: %v", err)
			}
			gw, err := comm.AllreduceScalar(sw, mpi.Sum)
			if err != nil {
				t.Errorf("reduce: %v", err)
			}
			return gx / gw
		}
		fc := flow.(*FlowComponent)
		if _, err := flow.Step(0.005); err != nil {
			t.Errorf("step: %v", err)
			return
		}
		x0 := centerX(fc)
		for i := 0; i < 10; i++ {
			if _, err := flow.Step(0.005); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
		x1 := centerX(fc)
		if x1 <= x0 {
			t.Errorf("center of mass did not advect: %v -> %v", x0, x1)
		}
	})
}

func TestMonitorFanOut(t *testing.T) {
	m := mesh.StructuredQuad(6, 6)
	mpi.Run(2, func(comm *mpi.Comm) {
		c := framework.NewCohort(comm, framework.Options{})
		if err := c.InstallParallel("mesh", func(rank int) cca.Component {
			mc, _ := NewMeshComponent(m, "greedy", comm.Size(), rank)
			return mc
		}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		if err := c.InstallParallel("flow", func(rank int) cca.Component {
			fc, _ := NewFlowComponent(comm, Config{Nu: 1})
			return fc
		}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		// Two monitors: fan-out must reach both.
		recorders := []*recordingMonitor{{}, {}}
		for i, r := range recorders {
			name := []string{"mon1", "mon2"}[i]
			r := r
			if err := c.InstallParallel(name, func(rank int) cca.Component { return r }); err != nil {
				t.Errorf("install %s: %v", name, err)
				return
			}
		}
		if _, err := c.ConnectParallel("flow", "mesh", "mesh", "mesh"); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := c.ConnectParallel("flow", "monitor", "mon1", "monitor"); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := c.ConnectParallel("flow", "monitor", "mon2", "monitor"); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		comp, _ := c.F.Component("flow")
		if _, err := comp.(FlowPort).Step(0.01); err != nil {
			t.Errorf("step: %v", err)
			return
		}
		// Each rank's flow member notified its local member of each
		// monitor exactly once (fan-out of one call to two listeners).
		for i, r := range recorders {
			if got := r.count(); got != 1 {
				t.Errorf("monitor %d observed %d times, want 1", i, got)
			}
		}
	})
}

type recordingMonitor struct {
	mu sync.Mutex
	n  int
}

func (r *recordingMonitor) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(r, cca.PortInfo{Name: "monitor", Type: TypeMonitor})
}

func (r *recordingMonitor) Observe(step int, st Stats) {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

func (r *recordingMonitor) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func TestConfigValidation(t *testing.T) {
	mpi.Run(1, func(comm *mpi.Comm) {
		if _, err := NewFlowComponent(comm, Config{Nu: 0}); !errors.Is(err, ErrHydro) {
			t.Errorf("nu err = %v", err)
		}
		if _, err := NewFlowComponent(comm, Config{Nu: 1, Prec: "ilu0"}); !errors.Is(err, ErrHydro) {
			t.Errorf("prec err = %v", err)
		}
	})
}

func TestStepErrors(t *testing.T) {
	m := mesh.StructuredQuad(4, 4)
	mpi.Run(1, func(comm *mpi.Comm) {
		flow := buildPipeline(t, comm, m, Config{Nu: 1})
		if _, err := flow.Step(-1); !errors.Is(err, ErrHydro) {
			t.Errorf("dt err = %v", err)
		}
		// CFL violation with absurd velocity.
		flow2 := buildPipeline2(t, comm, m, Config{Nu: 1, Vel: [2]float64{1e6, 0}})
		if _, err := flow2.Step(0.1); !errors.Is(err, ErrHydro) {
			t.Errorf("cfl err = %v", err)
		}
	})
}

// buildPipeline2 is buildPipeline with distinct instance names so two
// pipelines can coexist in one test world.
func buildPipeline2(t *testing.T, comm *mpi.Comm, m *mesh.Mesh, cfg Config) FlowPort {
	t.Helper()
	c := framework.NewCohort(comm, framework.Options{})
	if err := c.InstallParallel("mesh2", func(rank int) cca.Component {
		mc, _ := NewMeshComponent(m, "rcb", comm.Size(), rank)
		return mc
	}); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := c.InstallParallel("flow2", func(rank int) cca.Component {
		fc, _ := NewFlowComponent(comm, cfg)
		return fc
	}); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := c.ConnectParallel("flow2", "mesh", "mesh2", "mesh"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	comp, _ := c.F.Component("flow2")
	return comp.(FlowPort)
}

func TestFlowWithJacobiPrecFewerIters(t *testing.T) {
	m := mesh.StructuredQuad(20, 20)
	mpi.Run(2, func(comm *mpi.Comm) {
		plain := buildPipeline(t, comm, m, Config{Nu: 2, Tol: 1e-10})
		jac := buildPipeline2(t, comm, m, Config{Nu: 2, Tol: 1e-10, Prec: "jacobi"})
		sp, err := plain.Step(0.5)
		if err != nil {
			t.Errorf("plain: %v", err)
			return
		}
		sj, err := jac.Step(0.5)
		if err != nil {
			t.Errorf("jacobi: %v", err)
			return
		}
		if sj.SolveIters > sp.SolveIters {
			t.Errorf("jacobi %d iters > plain %d", sj.SolveIters, sp.SolveIters)
		}
	})
}

func TestSideOfDecomposition(t *testing.T) {
	m := mesh.StructuredQuad(6, 6)
	part := mesh.RCB{}.PartitionNodes(m, 3)
	for r := 0; r < 3; r++ {
		d, err := mesh.Decompose(m, part, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		side, err := SideOf(d)
		if err != nil {
			t.Fatal(err)
		}
		if side.Map.GlobalLen() != m.NumNodes() || side.Map.Ranks() != 3 {
			t.Fatalf("side map = %v", side.Map)
		}
		if side.Map.LocalLen(r) != d.NumOwned() {
			t.Errorf("rank %d local len %d, want %d", r, side.Map.LocalLen(r), d.NumOwned())
		}
	}
}

func TestSteadyStateWithSource(t *testing.T) {
	// With a steady source, the semi-implicit scheme must converge to a
	// nonzero steady state: successive step differences shrink toward 0.
	m := mesh.StructuredQuad(10, 10)
	mpi.Run(2, func(comm *mpi.Comm) {
		flow := buildPipeline(t, comm, m, Config{
			Nu: 1, Tol: 1e-12,
			InitialCondition: func(x, y float64) float64 { return 0 },
			Source: func(x, y float64) float64 {
				dx, dy := x-0.5, y-0.5
				return 10 * math.Exp(-20*(dx*dx+dy*dy))
			},
		})
		// The graph Laplacian's smallest eigenvalue is O(1/n²), so the
		// diffusive time constant is ~6 here; the implicit scheme is
		// unconditionally stable, allowing large steps to reach it.
		var prevNorm float64
		var diffs []float64
		for i := 0; i < 80; i++ {
			st, err := flow.Step(0.5)
			if err != nil {
				t.Errorf("step: %v", err)
				return
			}
			diffs = append(diffs, math.Abs(st.Norm2-prevNorm))
			prevNorm = st.Norm2
		}
		if prevNorm < 0.01 {
			t.Errorf("steady state is trivially zero: ‖u‖=%v", prevNorm)
		}
		// Late-time step-to-step change must be tiny relative to early.
		if diffs[len(diffs)-1] > diffs[1]*1e-3 {
			t.Errorf("not converging to steady state: first diff %v, last %v", diffs[1], diffs[len(diffs)-1])
		}
	})
}
