package hydro

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/mesh"
	"repro/internal/mpi"
)

// wireIntegrator assembles mesh -> flow -> integrator on every rank.
func wireIntegrator(t *testing.T, comm *mpi.Comm, m *mesh.Mesh, steps int, dt float64) *IntegratorComponent {
	t.Helper()
	c, _ := wirePipeline(t, comm, m, Config{Nu: 1, Tol: 1e-10}, "")
	var integ *IntegratorComponent
	if err := c.InstallParallel("driver", func(rank int) cca.Component {
		integ = NewIntegratorComponent(steps, dt)
		return integ
	}); err != nil {
		t.Fatalf("install driver: %v", err)
	}
	if _, err := c.ConnectParallel("driver", "flow", "flow", "flow"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	return integ
}

func TestIntegratorRunsSegments(t *testing.T) {
	m := mesh.StructuredQuad(8, 8)
	mpi.Run(2, func(comm *mpi.Comm) {
		integ := wireIntegrator(t, comm, m, 3, 0.01)
		st, err := integ.Run(3, 0.01)
		if err != nil {
			t.Errorf("run: %v", err)
			return
		}
		if st.Step != 3 || math.Abs(st.Time-0.03) > 1e-12 {
			t.Errorf("stats = %+v", st)
		}
		if integ.LastStats().Step != 3 {
			t.Errorf("last = %+v", integ.LastStats())
		}
		// A second segment continues from the first.
		st, err = integ.Run(2, 0.01)
		if err != nil || st.Step != 5 {
			t.Errorf("second run: %+v, %v", st, err)
		}
	})
}

func TestIntegratorGoPort(t *testing.T) {
	m := mesh.StructuredQuad(6, 6)
	mpi.Run(1, func(comm *mpi.Comm) {
		integ := wireIntegrator(t, comm, m, 4, 0.005)
		var gp GoPort = integ
		if rc := gp.Go(); rc != 0 {
			t.Fatalf("Go() = %d", rc)
		}
		if integ.LastStats().Step != 4 {
			t.Errorf("steps = %d", integ.LastStats().Step)
		}
	})
}

func TestIntegratorGoFailsWithoutFlow(t *testing.T) {
	f := framework.New(framework.Options{})
	integ := NewIntegratorComponent(1, 0.01)
	if err := f.Install("driver", integ); err != nil {
		t.Fatal(err)
	}
	if rc := integ.Go(); rc == 0 {
		t.Error("Go() succeeded without a flow connection")
	}
	if _, err := integ.Run(1, 0.01); !errors.Is(err, cca.ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
}

func TestIntegratorArgValidation(t *testing.T) {
	m := mesh.StructuredQuad(4, 4)
	mpi.Run(1, func(comm *mpi.Comm) {
		integ := wireIntegrator(t, comm, m, 1, 0.01)
		if _, err := integ.Run(0, 0.01); !errors.Is(err, ErrHydro) {
			t.Errorf("n err = %v", err)
		}
		if _, err := integ.Run(1, -1); !errors.Is(err, ErrHydro) {
			t.Errorf("dt err = %v", err)
		}
	})
}
