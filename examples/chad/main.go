// Chad runs the paper's Figure 1 end-to-end: a CHAD-like semi-implicit
// flow simulation distributed over P goroutine "ranks", wired entirely
// through CCA ports, with a serial visualization tool on an extra rank that
// attaches mid-run through a collective port and renders ASCII frames —
// the §2.2 scenario of "dynamically attaching a visualization tool to an
// ongoing simulation that is running on a remote parallel machine."
//
// Component graph (paper Figure 1):
//
//	driver (time integrator) ──flow──▶ flow ◀──mesh── mesh
//	                                    │ ──monitor──▶ stats monitor (per rank)
//	                                    └─field (collective DistArray port)──▶ viz (rank P)
//
// Run:
//
//	go run ./examples/chad [-p 4] [-grid 24] [-steps 12] [-attach 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cca"
	"repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/viz"
)

func main() {
	p := flag.Int("p", 4, "parallel ranks of the flow component")
	grid := flag.Int("grid", 24, "mesh cells per side")
	steps := flag.Int("steps", 12, "timesteps")
	attachAt := flag.Int("attach", 4, "step at which the viz tool attaches")
	dt := flag.Float64("dt", 0.004, "timestep")
	nu := flag.Float64("nu", 0.4, "diffusion coefficient")
	flag.Parse()

	m := mesh.StructuredQuad(*grid, *grid)
	fmt.Printf("mesh: %d nodes, %d cells; flow on %d ranks + 1 viz rank\n",
		m.NumNodes(), m.NumCells(), *p)

	vizRank := *p
	mpi.Run(*p+1, func(world *mpi.Comm) {
		// Carve the flow cohort out of the world (viz keeps rank P).
		color := 0
		if world.Rank() == vizRank {
			color = 1
		}
		sub, err := world.Split(color, world.Rank())
		if err != nil {
			log.Fatal(err)
		}

		var flow *hydro.FlowComponent
		var driver *hydro.IntegratorComponent
		if world.Rank() != vizRank {
			flow, driver = buildFlow(sub, m, *p, *nu)
		}

		var att *viz.Attachment
		for step := 1; step <= *steps; step++ {
			if flow != nil {
				// The time-integrator component drives the flow through
				// its uses port (Figure 1's driver box).
				if _, err := driver.Run(1, *dt); err != nil {
					log.Fatalf("rank %d step %d: %v", world.Rank(), step, err)
				}
			}
			// Dynamic attach: all world ranks join the collective
			// connection at the agreed step.
			if step == *attachAt {
				att = attach(world, flow, m, *p, vizRank)
				if world.Rank() == vizRank {
					fmt.Printf("\n-- viz attached at step %d --\n", step)
				}
			}
			if att != nil {
				snap, err := att.Snapshot(world)
				if err != nil {
					log.Fatalf("rank %d snapshot: %v", world.Rank(), err)
				}
				if world.Rank() == vizRank && (step-*attachAt)%2 == 0 {
					fmt.Printf("\nstep %d:\n%s", step, viz.RenderASCII(m.Coords, snap, 2**grid+1, *grid+1))
				}
			}
		}
	})
}

// buildFlow assembles this rank's mesh+flow+monitor+driver components
// through the cohort framework.
func buildFlow(comm *mpi.Comm, m *mesh.Mesh, p int, nu float64) (*hydro.FlowComponent, *hydro.IntegratorComponent) {
	c := framework.NewCohort(comm, framework.Options{})
	if err := c.InstallParallel("mesh", func(rank int) cca.Component {
		mc, err := hydro.NewMeshComponent(m, "rcb", p, rank)
		if err != nil {
			log.Fatal(err)
		}
		return mc
	}); err != nil {
		log.Fatal(err)
	}
	var flow *hydro.FlowComponent
	if err := c.InstallParallel("flow", func(rank int) cca.Component {
		fc, err := hydro.NewFlowComponent(comm, hydro.Config{
			Nu: nu, Vel: [2]float64{3, 1.5}, Tol: 1e-9, Prec: "jacobi",
		})
		if err != nil {
			log.Fatal(err)
		}
		flow = fc
		return fc
	}); err != nil {
		log.Fatal(err)
	}
	// A stats monitor on rank 0 only prints; other ranks stay silent.
	if err := c.InstallParallel("stats", func(rank int) cca.Component {
		mon := &viz.StatsMonitor{}
		if rank == 0 {
			mon.Out = os.Stdout
		}
		return mon
	}); err != nil {
		log.Fatal(err)
	}
	if err := c.VerifyPorts("flow"); err != nil {
		log.Fatal(err)
	}
	if _, err := c.ConnectParallel("flow", "mesh", "mesh", "mesh"); err != nil {
		log.Fatal(err)
	}
	if _, err := c.ConnectParallel("flow", "monitor", "stats", "monitor"); err != nil {
		log.Fatal(err)
	}
	var driver *hydro.IntegratorComponent
	if err := c.InstallParallel("driver", func(rank int) cca.Component {
		driver = hydro.NewIntegratorComponent(1, 0.004)
		return driver
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := c.ConnectParallel("driver", "flow", "flow", "flow"); err != nil {
		log.Fatal(err)
	}
	return flow, driver
}

// attach plans the collective connection on every world rank. Flow ranks
// pass their live component; the viz rank reconstructs the side metadata
// deterministically (same mesh, same partitioner — the SPMD consistency
// §6.3 relies on).
func attach(world *mpi.Comm, flow *hydro.FlowComponent, m *mesh.Mesh, p, vizRank int) *viz.Attachment {
	var att *viz.Attachment
	var err error
	if flow != nil {
		att, err = viz.Attach(flow, vizRank)
	} else {
		part := mesh.RCB{}.PartitionNodes(m, p)
		d, derr := mesh.Decompose(m, part, p, 0)
		if derr != nil {
			log.Fatal(derr)
		}
		side, serr := hydro.SideOf(d)
		if serr != nil {
			log.Fatal(serr)
		}
		att, err = viz.Attach(vizSide{side: side}, vizRank)
	}
	if err != nil {
		log.Fatalf("rank %d attach: %v", world.Rank(), err)
	}
	return att
}

// vizSide carries the provider's side metadata on the consumer rank, which
// is never asked for data (it is not in the source side).
type vizSide struct {
	side collective.Side
}

func (v vizSide) Side() collective.Side { return v.side }
func (v vizSide) LocalData() []float64  { return nil }
