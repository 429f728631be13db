package viz

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/mpi"
)

func TestStatsMonitorRecordsAndPrints(t *testing.T) {
	var buf bytes.Buffer
	m := &StatsMonitor{Out: &buf}
	f := framework.New(framework.Options{})
	if err := f.Install("mon", m); err != nil {
		t.Fatal(err)
	}
	m.Observe(1, hydro.Stats{Step: 1, Max: 0.5})
	m.Observe(2, hydro.Stats{Step: 2, Max: 0.4})
	if !strings.Contains(buf.String(), "step=1") || !strings.Contains(buf.String(), "step=2") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestRenderASCIIShape(t *testing.T) {
	// A peak in the center must render the densest character centrally.
	var coords [][2]float64
	var vals []float64
	for iy := 0; iy <= 10; iy++ {
		for ix := 0; ix <= 10; ix++ {
			x, y := float64(ix)/10, float64(iy)/10
			coords = append(coords, [2]float64{x, y})
			dx, dy := x-0.5, y-0.5
			vals = append(vals, math.Exp(-20*(dx*dx+dy*dy)))
		}
	}
	out := RenderASCII(coords, vals, 11, 11)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[5][5] != '@' {
		t.Errorf("center char = %q\n%s", string(lines[5][5]), out)
	}
	if lines[0][0] == '@' {
		t.Errorf("corner is densest\n%s", out)
	}
}

func TestRenderASCIIDegenerate(t *testing.T) {
	// Constant field and empty input must not panic.
	if out := RenderASCII(nil, nil, 4, 2); len(strings.Split(strings.TrimRight(out, "\n"), "\n")) != 2 {
		t.Errorf("empty render = %q", out)
	}
	coords := [][2]float64{{0, 0}, {1, 1}}
	out := RenderASCII(coords, []float64{3, 3}, 2, 2)
	if !strings.Contains(out, " ") && len(out) == 0 {
		t.Errorf("constant render = %q", out)
	}
}

// TestDynamicAttachDuringRun reproduces §2.2's flagship scenario: a serial
// visualization tool attaches, via a collective port, to a parallel
// simulation that is already stepping, on a rank outside the simulation
// cohort — Figure 1's differently distributed connection.
func TestDynamicAttachDuringRun(t *testing.T) {
	const flowRanks = 3
	const vizRank = 3
	m := mesh.StructuredQuad(10, 10)

	mpi.Run(flowRanks+1, func(world *mpi.Comm) {
		// Split: flow cohort = ranks 0..2; viz = rank 3.
		color := 0
		if world.Rank() == vizRank {
			color = 1
		}
		sub, err := world.Split(color, world.Rank())
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}

		var flow *hydro.FlowComponent
		if world.Rank() != vizRank {
			c := framework.NewCohort(sub, framework.Options{})
			if err := c.InstallParallel("mesh", func(rank int) cca.Component {
				mc, err := hydro.NewMeshComponent(m, "rcb", flowRanks, rank)
				if err != nil {
					t.Errorf("mesh: %v", err)
				}
				return mc
			}); err != nil {
				t.Errorf("install mesh: %v", err)
				return
			}
			if err := c.InstallParallel("flow", func(rank int) cca.Component {
				fc, err := hydro.NewFlowComponent(sub, hydro.Config{Nu: 1, Tol: 1e-10})
				if err != nil {
					t.Errorf("flow: %v", err)
				}
				flow = fc
				return fc
			}); err != nil {
				t.Errorf("install flow: %v", err)
				return
			}
			if _, err := c.ConnectParallel("flow", "mesh", "mesh", "mesh"); err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			// Run two steps BEFORE the viz attaches.
			for i := 0; i < 2; i++ {
				if _, err := flow.Step(0.02); err != nil {
					t.Errorf("pre-attach step: %v", err)
					return
				}
			}
		}

		// The attach point: all ranks must agree on the provider's side.
		// Flow ranks publish their real component; the viz rank builds
		// the plan from the (deterministically recomputed) side metadata.
		var provider collective.DistArrayPort
		if flow != nil {
			provider = flow
		} else {
			part := mesh.RCB{}.PartitionNodes(m, flowRanks)
			d, err := mesh.Decompose(m, part, flowRanks, 0)
			if err != nil {
				t.Errorf("viz decompose: %v", err)
				return
			}
			side, err := hydro.SideOf(d)
			if err != nil {
				t.Errorf("viz side: %v", err)
				return
			}
			provider = &sideOnly{side: side}
		}
		att, err := Attach(provider, vizRank)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}

		// Interleave stepping with snapshots.
		for i := 0; i < 2; i++ {
			if flow != nil {
				if _, err := flow.Step(0.02); err != nil {
					t.Errorf("post-attach step: %v", err)
					return
				}
			}
			snap, err := att.Snapshot(world)
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			if world.Rank() == vizRank {
				if len(snap) != m.NumNodes() {
					t.Errorf("snapshot length %d", len(snap))
					return
				}
				// Field must look like a decayed centered bump: positive
				// peak near center, ~0 at boundary.
				maxV := 0.0
				for _, v := range snap {
					if v > maxV {
						maxV = v
					}
				}
				if maxV <= 0 || maxV > 1 {
					t.Errorf("snapshot max = %v", maxV)
				}
				ascii := RenderASCII(m.Coords, snap, 21, 11)
				if !strings.ContainsAny(ascii, "@%#") {
					t.Errorf("render lacks a peak:\n%s", ascii)
				}
			}
		}
	})
}

// sideOnly is the consumer-side placeholder for the provider's port: it
// carries the side metadata the planner needs but never supplies data (the
// viz rank is not in the source side).
type sideOnly struct {
	side collective.Side
}

func (s *sideOnly) Side() collective.Side { return s.side }
func (s *sideOnly) LocalData() []float64  { return nil }
