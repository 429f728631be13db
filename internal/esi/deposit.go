package esi

import (
	"fmt"

	"repro/internal/cca"
	"repro/internal/repo"
	"repro/internal/sidl/sreflect"
)

// Deposit deposits the embedded ESI interface standard plus factories for
// the solver and preconditioner components into r (operators are
// factory-less: they wrap concrete matrices) into r as one DepositAll
// batch, and registers the merged SIDL world for reflection/DMI users.
func Deposit(r *repo.Repository) error {
	deposits := []repo.Entry{
		{
			Name: "esi.Interfaces", Version: "1.0",
			Description: "Equation Solver Interface standard (SIDL definitions)",
			SIDL:        esiSIDL,
		},
		{
			Name: "cca.Ports", Version: "0.5",
			Description: "CCA collective and monitor port interfaces",
			SIDL:        portsSIDL,
		},
	}
	for _, method := range []string{"cg", "gmres", "bicgstab"} {
		deposits = append(deposits, repo.Entry{
			Name:        "esi.SolverComponent." + method,
			Version:     "1.0",
			Description: method + " Krylov solver component",
			Provides:    []repo.PortSpec{{Name: "solver", Type: TypeSolver}},
			Uses: []repo.PortSpec{
				{Name: "A", Type: TypeOperator},
				{Name: "M", Type: TypePreconditioner},
			},
			Factory: func() cca.Component { return NewSolverComponent(method) },
		})
	}
	for _, kind := range []string{"none", "jacobi", "sor", "ilu0"} {
		deposits = append(deposits, repo.Entry{
			Name:        "esi.PreconditionerComponent." + kind,
			Version:     "1.0",
			Description: kind + " preconditioner component",
			Provides:    []repo.PortSpec{{Name: "M", Type: TypePreconditioner}},
			Uses:        []repo.PortSpec{{Name: "A", Type: TypeMatrixData}},
			Factory:     func() cca.Component { return NewPreconditionerComponent(kind) },
		})
	}
	deposits = append(deposits, repo.Entry{
		Name:        "esi.IterativeSolverComponent.cg",
		Version:     "1.0",
		Description: "step-wise cg solver component (checkpointable, hot-swappable)",
		Provides:    []repo.PortSpec{{Name: "solver", Type: TypeIterativeSolver}},
		Uses:        []repo.PortSpec{{Name: "A", Type: TypeOperator}},
		Factory:     func() cca.Component { return NewIterativeSolverComponent() },
	})
	if err := r.DepositAll(deposits); err != nil {
		return fmt.Errorf("esi: deposit: %w", err)
	}
	sreflect.Global.RegisterTable(r.Table())
	return nil
}
