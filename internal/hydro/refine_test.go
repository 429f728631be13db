package hydro

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/mpi"
)

// TestMidRunRefinement reproduces §2.2's scenario at the component level:
// a running simulation is stopped, the mesh refined, the field carried over
// by prolongation, and the simulation continued on the fine mesh through a
// fresh component pipeline — "the researcher may wish to introduce a new
// scheme for hierarchical mesh refinement."
func TestMidRunRefinement(t *testing.T) {
	coarse := mesh.StructuredQuad(8, 8)
	fine, prolong, err := mesh.Refine(coarse)
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	const dt = 0.01

	mpi.Run(p, func(comm *mpi.Comm) {
		// Phase 1: run on the coarse mesh.
		_, flowC := wirePipeline(t, comm, coarse, Config{Nu: 1, Tol: 1e-10}, "")
		var lastCoarse Stats
		for i := 0; i < 3; i++ {
			st, err := flowC.Step(dt)
			if err != nil {
				t.Errorf("coarse step: %v", err)
				return
			}
			lastCoarse = st
		}

		// Gather the coarse field globally.
		global, err := globalField(comm, flowC)
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}

		// Phase 2: refine, interpolate, continue on the fine mesh.
		fineField := prolong.Apply(global)
		_, flowF := wirePipeline(t, comm, fine, Config{Nu: 1, Tol: 1e-10, InitialCondition: fieldAt(fine, fineField)}, "2")
		st, err := flowF.Step(dt)
		if err != nil {
			t.Errorf("fine step: %v", err)
			return
		}
		// Continuity: the field keeps decaying smoothly across the swap
		// (no spurious energy injection from interpolation).
		if st.Max > lastCoarse.Max+1e-9 {
			t.Errorf("max grew across refinement: %v -> %v", lastCoarse.Max, st.Max)
		}
		if st.Max < lastCoarse.Max*0.5 {
			t.Errorf("field collapsed across refinement: %v -> %v", lastCoarse.Max, st.Max)
		}
		if st.Min < -1e-9 {
			t.Errorf("negative undershoot after refinement: %v", st.Min)
		}
	})
}

// fieldAt turns a global node field into an initial condition: the value
// at a node's coordinates is the field's value at that node.
func fieldAt(m *mesh.Mesh, field []float64) func(x, y float64) float64 {
	at := make(map[[2]float64]float64, len(field))
	for g, c := range m.Coords {
		at[c] = field[g]
	}
	return func(x, y float64) float64 { return at[[2]float64{x, y}] }
}

// TestInitialFieldExactlyApplied hands a whole node field to the pipeline
// through InitialCondition, as a refinement handoff does: every interior
// node starts at exactly its field value, boundary nodes at 0.
func TestInitialFieldExactlyApplied(t *testing.T) {
	m := mesh.StructuredQuad(5, 5)
	field := make([]float64, m.NumNodes())
	boundary := map[int]bool{}
	for _, n := range m.BoundaryNodes() {
		boundary[n] = true
	}
	for i := range field {
		if !boundary[i] {
			field[i] = float64(i) / 100
		}
	}
	mpi.Run(2, func(comm *mpi.Comm) {
		_, fc := wirePipeline(t, comm, m, Config{Nu: 1, Tol: 1e-12, InitialCondition: fieldAt(m, field)}, "")
		if err := fc.init(); err != nil {
			t.Errorf("init: %v", err)
			return
		}
		for li, g := range fc.st.dec.Owned {
			want := field[g]
			if boundary[g] {
				want = 0
			}
			if math.Abs(fc.st.u[li]-want) > 1e-15 {
				t.Errorf("node %d: %v, want %v", g, fc.st.u[li], want)
				return
			}
		}
	})
}
