package esi

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/linalg"
	"repro/internal/repo"
)

// esiBuilder is a builder over a repository holding the ESI deposits.
func esiBuilder(t *testing.T) *repo.Builder {
	t.Helper()
	r := repo.New()
	if err := Deposit(r); err != nil {
		t.Fatal(err)
	}
	return repo.NewBuilder(r, framework.Options{})
}

func TestDepositResolves(t *testing.T) {
	app := esiBuilder(t)
	names := app.Repo.List()
	if len(names) < 7 {
		t.Fatalf("repository has %d entries: %v", len(names), names)
	}
	if app.Repo.Table().Lookup("esi.Solver") != "interface" {
		t.Error("esi SIDL not merged")
	}
}

func TestEndToEndSolveViaBuilder(t *testing.T) {
	app := esiBuilder(t)
	m := linalg.Poisson2D(12, 12)
	if err := app.Fw.Install("op", NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	if err := app.Create("solver", "esi.SolverComponent.cg"); err != nil {
		t.Fatal(err)
	}
	if err := app.Create("prec", "esi.PreconditionerComponent.jacobi"); err != nil {
		t.Fatal(err)
	}
	// Subtype-checked connections: solver.A wants esi.Operator; the
	// operator provides esi.MatrixData (a subtype).
	for _, c := range [][4]string{
		{"solver", "A", "op", "A"},
		{"prec", "A", "op", "A"},
		{"solver", "M", "prec", "M"},
	} {
		if _, err := app.Fw.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatalf("connect %v: %v", c, err)
		}
	}
	comp, ok := app.Component("solver")
	if !ok {
		t.Fatal("solver missing")
	}
	solver := comp.(EsiSolver)
	solver.SetTolerance(1e-10)
	b := make([]float64, m.NRows)
	if err := m.Apply(linalg.Ones(m.NCols), b); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.NRows)
	iters, err := solver.Solve(b, &x)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if iters == 0 {
		t.Error("no iterations")
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
}

func TestTypeMismatchRejectedThroughBuilder(t *testing.T) {
	app := esiBuilder(t)
	if err := app.Create("s1", "esi.SolverComponent.cg"); err != nil {
		t.Fatal(err)
	}
	if err := app.Create("s2", "esi.SolverComponent.gmres"); err != nil {
		t.Fatal(err)
	}
	// solver.A uses esi.Operator; another solver provides esi.Solver,
	// which does NOT extend Operator in this SIDL corpus.
	if _, err := app.Fw.Connect("s1", "A", "s2", "solver"); !errors.Is(err, cca.ErrTypeMismatch) {
		t.Errorf("err = %v", err)
	}
}

func TestPortAccess(t *testing.T) {
	app := esiBuilder(t)
	if err := app.Fw.Install("op", NewOperatorComponent(linalg.Laplace1D(4))); err != nil {
		t.Fatal(err)
	}
	if err := app.Create("solver", "esi.SolverComponent.cg"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Fw.Connect("solver", "A", "op", "A"); err != nil {
		t.Fatal(err)
	}
	p, err := app.Port("solver", "A")
	if err != nil {
		t.Fatal(err)
	}
	if p.(EsiOperator).Rows() != 4 {
		t.Error("wrong port")
	}
	if _, err := app.Port("ghost", "A"); err == nil {
		t.Error("phantom instance")
	}
}
