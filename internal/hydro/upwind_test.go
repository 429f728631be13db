package hydro

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/mpi"
)

// mapSweep is the advection sweep as FlowComponent.Step ran it before the
// stencil was precomputed: per owned node a boundary map lookup, the edge
// geometry and a LocalIndex map lookup per inflow neighbour. It is the
// reference Upwind.Sweep is held to bit for bit.
func mapSweep(dec *mesh.Decomposition, boundary map[int]bool, vel [2]float64, dt float64, u, source []float64) ([]float64, error) {
	m := dec.M
	ustar := make([]float64, dec.NumOwned())
	for li, g := range dec.Owned {
		if boundary[g] {
			continue
		}
		ui := u[li]
		acc := 0.0
		rate := 0.0
		for _, j := range m.NodeNeighbors(g) {
			e := [2]float64{m.Coords[j][0] - m.Coords[g][0], m.Coords[j][1] - m.Coords[g][1]}
			h2 := e[0]*e[0] + e[1]*e[1]
			if h2 == 0 {
				continue
			}
			c := -(vel[0]*e[0] + vel[1]*e[1]) / h2
			if c > 0 {
				lj := dec.LocalIndex(j)
				acc += c * (u[lj] - ui)
				rate += c
			}
		}
		if dt*rate > 1 {
			return nil, fmt.Errorf("%w: advection CFL violated at node %d (dt·rate=%.3f)", ErrHydro, g, dt*rate)
		}
		ustar[li] = ui + dt*acc
		if source != nil {
			ustar[li] += dt * source[li]
		}
	}
	for li, g := range dec.Owned {
		if boundary[g] {
			ustar[li] = u[li]
		}
	}
	return ustar, nil
}

// upwindSetup decomposes m over p ranks as MeshComponent's "rcb" does and
// returns rank's decomposition with the boundary set.
func upwindSetup(t *testing.T, m *mesh.Mesh, p, rank int) (*mesh.Decomposition, map[int]bool) {
	t.Helper()
	dec, err := mesh.Decompose(m, mesh.RCB{}.PartitionNodes(m, p), p, rank)
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[int]bool{}
	for _, n := range m.BoundaryNodes() {
		boundary[n] = true
	}
	return dec, boundary
}

func TestUpwindSweepMatchesMapSweep(t *testing.T) {
	m := mesh.StructuredQuad(32, 32)
	vel := [2]float64{1, 0.5}
	const dt = 0.01
	for rank := 0; rank < 2; rank++ {
		dec, boundary := upwindSetup(t, m, 2, rank)
		// Owned values then ghosts, as after a halo exchange.
		u := make([]float64, dec.NumLocal())
		for li, g := range append(append([]int(nil), dec.Owned...), dec.Ghosts...) {
			u[li] = math.Sin(0.37*float64(g)) + 1e-3*float64(g)
		}
		source := make([]float64, dec.NumOwned())
		for li, g := range dec.Owned {
			if !boundary[g] {
				c := m.Coords[g]
				source[li] = 4 * math.Exp(-30*((c[0]-0.3)*(c[0]-0.3)+(c[1]-0.6)*(c[1]-0.6)))
			}
		}
		w := NewUpwind(dec, boundary, vel)
		for _, src := range [][]float64{source, nil} {
			want, err := mapSweep(dec, boundary, vel, dt, u, src)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, dec.NumOwned())
			if err := w.Sweep(dt, u, src, got); err != nil {
				t.Fatal(err)
			}
			for li := range want {
				if math.Float64bits(got[li]) != math.Float64bits(want[li]) {
					t.Fatalf("rank %d source=%t node %d: Sweep %v, map sweep %v",
						rank, src != nil, dec.Owned[li], got[li], want[li])
				}
			}
		}
	}
}

// TestStepCFLErrorNamesSameNode breaks the CFL bound on every interior
// node: each rank's Step must fail with ErrHydro and the map sweep's
// message, which names the rank's first interior node in owned order.
func TestStepCFLErrorNamesSameNode(t *testing.T) {
	m := mesh.StructuredQuad(32, 32)
	vel := [2]float64{1, 0.5}
	const dt = 0.05 // dt·rate = 0.05·1.5·32 = 2.4
	mpi.Run(2, func(comm *mpi.Comm) {
		dec, boundary := upwindSetup(t, m, 2, comm.Rank())
		_, want := mapSweep(dec, boundary, vel, dt, make([]float64, dec.NumLocal()), nil)
		if want == nil {
			t.Errorf("rank %d: the map sweep accepted dt·rate > 1", comm.Rank())
			return
		}
		_, flow := wirePipeline(t, comm, m, Config{Nu: 1, Vel: vel}, "")
		_, err := flow.Step(dt)
		if !errors.Is(err, ErrHydro) || err.Error() != want.Error() {
			t.Errorf("rank %d: Step err = %v, want %v", comm.Rank(), err, want)
		}
	})
}

// TestStepAllocatesNoVector: after a warm-up step, a timestep allocates
// less than one length-NumOwned vector.
func TestStepAllocatesNoVector(t *testing.T) {
	m := mesh.StructuredQuad(64, 64)
	mpi.Run(1, func(comm *mpi.Comm) {
		_, flow := wirePipeline(t, comm, m, Config{
			Nu: 1, Vel: [2]float64{1, 0.5}, Prec: "jacobi",
			Source: func(x, y float64) float64 { return math.Exp(-30 * ((x-0.3)*(x-0.3) + (y-0.6)*(y-0.6))) },
		}, "")
		const dt, steps = 0.005, 10
		if _, err := flow.Step(dt); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range steps {
			if _, err := flow.Step(dt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		n := len(flow.LocalData())
		if per := (after.TotalAlloc - before.TotalAlloc) / steps; per >= uint64(8*n) {
			t.Errorf("a step allocates %d B, a length-%d vector is %d B", per, n, 8*n)
		}
	})
}
