package hydro

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/mesh"
	"repro/internal/mpi"
)

// wirePipeline wires mesh -> flow on each cohort rank, as instances
// "mesh"+suffix and "flow"+suffix (two pipelines in one test world take
// different suffixes), and returns the cohort and the flow component. Uses
// the cohort framework so port registrations are verified consistent
// across ranks.
func wirePipeline(t *testing.T, comm *mpi.Comm, m *mesh.Mesh, cfg Config, suffix string) (*framework.Cohort, *FlowComponent) {
	t.Helper()
	c := framework.NewCohort(comm, framework.Options{})
	err := c.InstallParallel("mesh"+suffix, func(rank int) cca.Component {
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
	err = c.InstallParallel("flow"+suffix, func(rank int) cca.Component {
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
	if err := c.VerifyPorts("flow" + suffix); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := c.ConnectParallel("flow"+suffix, "mesh", "mesh"+suffix, "mesh"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	comp, _ := c.F.Component("flow" + suffix)
	return c, comp.(*FlowComponent)
}

func TestDiffusionDecaysAndStaysBounded(t *testing.T) {
	m := mesh.StructuredQuad(12, 12)
	mpi.Run(2, func(comm *mpi.Comm) {
		_, flow := wirePipeline(t, comm, m, Config{Nu: 1, Tol: 1e-10}, "")
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
		if math.Abs(prev.Time-0.25) > 1e-12 {
			t.Errorf("time = %v", prev.Time)
		}
	})
}

// globalField gathers flow's field in global node order: each rank
// contributes its owned values, so the sum is the whole field.
func globalField(comm *mpi.Comm, flow *FlowComponent) ([]float64, error) {
	local := make([]float64, flow.st.dec.M.NumNodes())
	for li, g := range flow.st.dec.Owned {
		local[g] = flow.st.u[li]
	}
	return comm.AllreduceFloat64(local, mpi.Sum)
}

func TestParallelMatchesSerial(t *testing.T) {
	m := mesh.TriangulatedRect(8, 8)
	cfg := Config{Nu: 0.5, Vel: [2]float64{1, 0.5}, Tol: 1e-12}
	const steps = 3
	const dt = 0.01

	var serial []float64 // the 1-rank field is the reference
	for _, p := range []int{1, 2, 3, 4} {
		var field []float64
		mpi.Run(p, func(comm *mpi.Comm) {
			_, flow := wirePipeline(t, comm, m, cfg, "")
			for i := 0; i < steps; i++ {
				if _, err := flow.Step(dt); err != nil {
					t.Errorf("p=%d step: %v", p, err)
					return
				}
			}
			f, err := globalField(comm, flow)
			if err != nil {
				t.Errorf("p=%d gather: %v", p, err)
			} else if comm.Rank() == 0 {
				field = f
			}
		})
		if t.Failed() {
			return
		}
		if p == 1 {
			serial = field
		}
		for i := range serial {
			if math.Abs(field[i]-serial[i]) > 1e-8 {
				t.Fatalf("p=%d: node %d: parallel %v vs serial %v", p, i, field[i], serial[i])
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
		_, flow := wirePipeline(t, comm, m, Config{Nu: 1, Tol: 1e-12}, "")
		for i := 0; i < 3; i++ {
			if _, err := flow.Step(0.02); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
		field, err := globalField(comm, flow)
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
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
		_, flow := wirePipeline(t, comm, m, Config{Nu: 0.05, Vel: [2]float64{4, 0}, Tol: 1e-10}, "")
		centerX := func(fc *FlowComponent) float64 {
			var sxw, sw float64
			for li, g := range fc.st.dec.Owned {
				w := fc.st.u[li]
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
		if _, err := flow.Step(0.005); err != nil {
			t.Errorf("step: %v", err)
			return
		}
		x0 := centerX(flow)
		for i := 0; i < 10; i++ {
			if _, err := flow.Step(0.005); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
		x1 := centerX(flow)
		if x1 <= x0 {
			t.Errorf("center of mass did not advect: %v -> %v", x0, x1)
		}
	})
}

// TestMonitorFanOut: every step reaches each connected monitor once, and
// releases it, so after the steps each monitor's port drains.
func TestMonitorFanOut(t *testing.T) {
	m := mesh.StructuredQuad(6, 6)
	mpi.Run(2, func(comm *mpi.Comm) {
		c, flow := wirePipeline(t, comm, m, Config{Nu: 1}, "")
		// Two monitors: fan-out must reach both.
		recorders := []*recordingMonitor{{}, {}}
		names := []string{"mon1", "mon2"}
		for i, r := range recorders {
			if err := c.InstallParallel(names[i], func(rank int) cca.Component { return r }); err != nil {
				t.Errorf("install %s: %v", names[i], err)
				return
			}
			if _, err := c.ConnectParallel("flow", "monitor", names[i], "monitor"); err != nil {
				t.Errorf("connect: %v", err)
				return
			}
		}
		const steps = 3
		for range steps {
			if _, err := flow.Step(0.01); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
		// Each rank's flow member notified its local member of each
		// monitor once per step (fan-out of one call to two listeners).
		for i, r := range recorders {
			if got := r.count(); got != steps {
				t.Errorf("monitor %d observed %d times, want %d", i, got, steps)
			}
			if err := c.F.Quiesce(names[i], "monitor", 200*time.Millisecond); err != nil {
				t.Errorf("rank %d: quiesce %s after %d steps: %v", comm.Rank(), names[i], steps, err)
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
		_, flow := wirePipeline(t, comm, m, Config{Nu: 1}, "")
		if _, err := flow.Step(-1); !errors.Is(err, ErrHydro) {
			t.Errorf("dt err = %v", err)
		}
		// CFL violation with absurd velocity.
		_, flow2 := wirePipeline(t, comm, m, Config{Nu: 1, Vel: [2]float64{1e6, 0}}, "2")
		if _, err := flow2.Step(0.1); !errors.Is(err, ErrHydro) {
			t.Errorf("cfl err = %v", err)
		}
	})
}

func TestFlowWithJacobiPrecFewerIters(t *testing.T) {
	m := mesh.StructuredQuad(20, 20)
	mpi.Run(2, func(comm *mpi.Comm) {
		_, plain := wirePipeline(t, comm, m, Config{Nu: 2, Tol: 1e-10}, "")
		_, jac := wirePipeline(t, comm, m, Config{Nu: 2, Tol: 1e-10, Prec: "jacobi"}, "2")
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
		_, flow := wirePipeline(t, comm, m, Config{
			Nu: 1, Tol: 1e-12,
			InitialCondition: func(x, y float64) float64 { return 0 },
			Source: func(x, y float64) float64 {
				dx, dy := x-0.5, y-0.5
				return 10 * math.Exp(-20*(dx*dx+dy*dy))
			},
		}, "")
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

// TestStepperMatchesPorts holds claim C1 bit for bit: the ports-wired
// FlowComponent and a Stepper driven directly on the same cohort, stepped
// alternately, agree in every Stats field and every owned field value at
// every step — on 1, 2 and 3 ranks, with advection and a source on.
func TestStepperMatchesPorts(t *testing.T) {
	m := mesh.StructuredQuad(16, 16)
	cfg := Config{
		Nu: 0.5, Vel: [2]float64{1, 0.5}, Prec: "jacobi",
		Source: func(x, y float64) float64 { return math.Exp(-30 * ((x-0.3)*(x-0.3) + (y-0.6)*(y-0.6))) },
	}
	const dt, steps = 0.01, 6
	for _, p := range []int{1, 2, 3} {
		mpi.Run(p, func(comm *mpi.Comm) {
			_, flow := wirePipeline(t, comm, m, cfg, "")
			dec, _ := upwindSetup(t, m, p, comm.Rank())
			direct, err := NewStepper(comm, dec, cfg)
			if err != nil {
				t.Errorf("p=%d: stepper: %v", p, err)
				return
			}
			for i := 1; i <= steps; i++ {
				got, err := flow.Step(dt)
				if err != nil {
					t.Errorf("p=%d step %d: ports: %v", p, i, err)
					return
				}
				want, err := direct.Step(dt)
				if err != nil {
					t.Errorf("p=%d step %d: direct: %v", p, i, err)
					return
				}
				if statsBits(got) != statsBits(want) {
					t.Errorf("p=%d rank %d step %d: ports %v, direct %v", p, comm.Rank(), i, got, want)
					return
				}
				gf, wf := flow.LocalData(), direct.OwnedField()
				for li := range wf {
					if math.Float64bits(gf[li]) != math.Float64bits(wf[li]) {
						t.Errorf("p=%d rank %d step %d node %d: ports %v, direct %v", p, comm.Rank(), i, dec.Owned[li], gf[li], wf[li])
						return
					}
				}
			}
		})
	}
}

// statsBits is s with every float64 replaced by its bits, so == compares
// bit for bit.
func statsBits(s Stats) [7]uint64 {
	return [7]uint64{uint64(s.Step), math.Float64bits(s.Time), math.Float64bits(s.Min),
		math.Float64bits(s.Max), math.Float64bits(s.Mean), math.Float64bits(s.Norm2), uint64(s.SolveIters)}
}

// eachStep builds a Stepper on each of p goroutine ranks (advection, a
// source and Jacobi on) and calls check after NewStepper (step 0) and
// after each of six steps; check returns false to stop the rank.
func eachStep(t *testing.T, p int, check func(comm *mpi.Comm, s *Stepper, step int, st Stats) bool) {
	t.Helper()
	m := mesh.StructuredQuad(16, 16)
	cfg := Config{
		Nu: 0.5, Vel: [2]float64{1, 0.5}, Prec: "jacobi",
		Source: func(x, y float64) float64 { return math.Exp(-30 * ((x-0.3)*(x-0.3) + (y-0.6)*(y-0.6))) },
	}
	mpi.Run(p, func(comm *mpi.Comm) {
		dec, _ := upwindSetup(t, m, p, comm.Rank())
		s, err := NewStepper(comm, dec, cfg)
		if err != nil {
			t.Errorf("p=%d: stepper: %v", p, err)
			return
		}
		if !check(comm, s, 0, Stats{}) {
			return
		}
		for i := 1; i <= 6; i++ {
			st, err := s.Step(0.01)
			if err != nil {
				t.Errorf("p=%d step %d: %v", p, i, err)
				return
			}
			if !check(comm, s, i, st) {
				return
			}
		}
	})
}

// TestFusedStatsMatchScalarReductions: the Stepper reduces its statistics
// in two calls, Max over (−min, max) and Sum over (sum, sum of squares).
// On 1–3 ranks every Stats field must equal, bit for bit, the four
// one-value reductions Min, Max, Sum, Sum of the same owned field.
func TestFusedStatsMatchScalarReductions(t *testing.T) {
	for p := 1; p <= 3; p++ {
		eachStep(t, p, func(comm *mpi.Comm, s *Stepper, step int, st Stats) bool {
			if step == 0 {
				return true
			}
			lmin, lmax, lsum, lsq := math.Inf(1), math.Inf(-1), 0.0, 0.0
			for _, v := range s.OwnedField() {
				lmin, lmax = min(lmin, v), max(lmax, v)
				lsum += v
				lsq += v * v
			}
			var g [4]float64
			for i, r := range []struct {
				x  float64
				op mpi.Op
			}{{lmin, mpi.Min}, {lmax, mpi.Max}, {lsum, mpi.Sum}, {lsq, mpi.Sum}} {
				var err error
				if g[i], err = comm.AllreduceScalar(r.x, r.op); err != nil {
					t.Errorf("p=%d: allreduce: %v", p, err)
					return false
				}
			}
			want := st
			want.Min, want.Max = g[0], g[1]
			want.Mean, want.Norm2 = g[2]/float64(s.dec.M.NumNodes()), math.Sqrt(g[3])
			if statsBits(st) != statsBits(want) {
				t.Errorf("p=%d rank %d step %d: fused %v, scalar %v", p, comm.Rank(), step, st, want)
				return false
			}
			return true
		})
	}
}

// TestStepLeavesGhostsCurrent: Step does not refresh the ghosts before
// its advection sweep, because NewStepper and the end of every step
// leave them current. Hold that: after NewStepper and after every step,
// a fresh Exchange of the field changes no bit.
func TestStepLeavesGhostsCurrent(t *testing.T) {
	for p := 1; p <= 3; p++ {
		eachStep(t, p, func(comm *mpi.Comm, s *Stepper, step int, _ Stats) bool {
			fresh := slices.Clone(s.u)
			if err := s.dec.Exchange(comm, fresh); err != nil {
				t.Errorf("p=%d step %d: exchange: %v", p, step, err)
				return false
			}
			for li := range fresh {
				if math.Float64bits(fresh[li]) != math.Float64bits(s.u[li]) {
					t.Errorf("p=%d rank %d step %d: local %d holds %v, a fresh exchange %v", p, comm.Rank(), step, li, s.u[li], fresh[li])
					return false
				}
			}
			return true
		})
	}
}
