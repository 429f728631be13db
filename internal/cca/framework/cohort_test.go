package framework

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cca"
	"repro/internal/mpi"
)

// rankedAdder is an SPMD component member: each rank provides its rank as
// the bias so tests can see per-member behaviour.
type rankedAdder struct {
	rank int
	svc  cca.Services
}

func (a *rankedAdder) SetServices(svc cca.Services) error {
	a.svc = svc
	return svc.AddProvidesPort(a, cca.PortInfo{Name: "add", Type: "test.AddPort"})
}

func (a *rankedAdder) Add(x, y float64) float64 { return x + y + float64(a.rank) }

type rankedCaller struct {
	svc cca.Services
}

func (c *rankedCaller) SetServices(svc cca.Services) error {
	c.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "sum", Type: "test.AddPort"})
}

func TestCohortInstallConnectCall(t *testing.T) {
	const p = 4
	mpi.Run(p, func(comm *mpi.Comm) {
		c := NewCohort(comm, Options{})
		if !c.F.opts.Flavor.Contains(cca.FlavorCollective) {
			t.Error("cohort framework lacks collective flavor")
		}
		if err := c.InstallParallel("adder", func(rank int) cca.Component {
			return &rankedAdder{rank: rank}
		}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		caller := &rankedCaller{}
		if err := c.InstallParallel("caller", func(rank int) cca.Component { return caller }); err != nil {
			t.Errorf("install caller: %v", err)
			return
		}
		if err := c.VerifyPorts("adder"); err != nil {
			t.Errorf("verify ports: %v", err)
			return
		}
		if _, err := c.ConnectParallel("caller", "sum", "adder", "add"); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// Each rank calls through its local member: rank-specific bias.
		port, err := caller.svc.GetPort("sum")
		if err != nil {
			t.Errorf("get port: %v", err)
			return
		}
		got := port.(interface{ Add(a, b float64) float64 }).Add(1, 2)
		if got != 3+float64(comm.Rank()) {
			t.Errorf("rank %d: Add = %v", comm.Rank(), got)
		}
	})
}

func TestCohortDetectsNameDivergence(t *testing.T) {
	mpi.Run(2, func(comm *mpi.Comm) {
		c := NewCohort(comm, Options{})
		name := "same"
		if comm.Rank() == 1 {
			name = "different"
		}
		err := c.InstallParallel(name, func(rank int) cca.Component { return &rankedAdder{} })
		if !errors.Is(err, ErrInconsistent) {
			t.Errorf("rank %d: err = %v, want ErrInconsistent", comm.Rank(), err)
		}
	})
}

func TestCohortDetectsPartialFailure(t *testing.T) {
	mpi.Run(3, func(comm *mpi.Comm) {
		c := NewCohort(comm, Options{})
		// Rank 2 pre-installs a colliding instance so its InstallParallel
		// member fails while the operation digest still matches.
		if comm.Rank() == 2 {
			if err := c.F.Install("x", &rankedAdder{}); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
		}
		err := c.InstallParallel("x", func(rank int) cca.Component { return &rankedAdder{} })
		if comm.Rank() == 2 {
			if !errors.Is(err, ErrComponentExists) {
				t.Errorf("rank 2 err = %v", err)
			}
		} else if !errors.Is(err, ErrInconsistent) {
			t.Errorf("rank %d err = %v, want ErrInconsistent", comm.Rank(), err)
		}
	})
}

func TestCohortDetectsPortDivergence(t *testing.T) {
	mpi.Run(2, func(comm *mpi.Comm) {
		c := NewCohort(comm, Options{})
		err := c.InstallParallel("odd", func(rank int) cca.Component {
			return &divergentPorts{extra: rank == 1}
		})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		if err := c.VerifyPorts("odd"); !errors.Is(err, ErrInconsistent) {
			t.Errorf("rank %d: err = %v, want ErrInconsistent", comm.Rank(), err)
		}
	})
}

type divergentPorts struct {
	extra bool
}

func (d *divergentPorts) SetServices(svc cca.Services) error {
	if err := svc.AddProvidesPort(d, cca.PortInfo{Name: "a", Type: "t.A"}); err != nil {
		return err
	}
	if d.extra {
		return svc.AddProvidesPort(d, cca.PortInfo{Name: "b", Type: "t.B"})
	}
	return nil
}

func TestCohortManyOperationsStayConsistent(t *testing.T) {
	mpi.Run(4, func(comm *mpi.Comm) {
		c := NewCohort(comm, Options{})
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("comp%d", i)
			if err := c.InstallParallel(name, func(rank int) cca.Component { return &rankedAdder{rank: rank} }); err != nil {
				t.Errorf("install %s: %v", name, err)
				return
			}
		}
		if got := len(c.F.ComponentNames()); got != 10 {
			t.Errorf("components = %d", got)
		}
	})
}
