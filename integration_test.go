package repro

// Integration test: the paper's Figure 2 exercised end-to-end in one
// scenario — SIDL definitions deposited in a repository, components
// instantiated through the builder, ports connected with subtype checking,
// the solve executed through both a direct connection and a distributed
// proxy, the repository persisted and reloaded, and reflection/DMI used to
// drive a component without compile-time knowledge.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/repo"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

func TestFigure2EndToEnd(t *testing.T) {
	// 1. Assemble the application container (repository + framework +
	// builder) with the ESI standard deposited.
	r := repo.New()
	if err := esi.Deposit(r); err != nil {
		t.Fatal(err)
	}
	app := repo.NewBuilder(r, framework.Options{})

	// 2. The builder searches the repository by port type: which deposited
	// components provide something usable as esi.Solver?
	hits := app.Repo.Search(repo.Query{ProvidesType: esi.TypeSolver})
	if len(hits) != 3 {
		t.Fatalf("solver providers = %d (%v)", len(hits), hits)
	}

	// 3. Instantiate and wire: operator (pre-built, wraps a matrix),
	// solver and preconditioner from repository factories.
	m := linalg.Poisson2D(20, 20)
	if err := app.Fw.Install("op", esi.NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	if err := app.Create("solver", "esi.SolverComponent.cg"); err != nil {
		t.Fatal(err)
	}
	if err := app.Create("prec", "esi.PreconditionerComponent.ilu0"); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][4]string{
		{"solver", "A", "op", "A"}, {"prec", "A", "op", "A"}, {"solver", "M", "prec", "M"},
	} {
		if _, err := app.Fw.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatalf("connect %v: %v", c, err)
		}
	}

	// 4. Solve through the directly connected ports.
	b := make([]float64, m.NRows)
	if err := m.Apply(linalg.Ones(m.NCols), b); err != nil {
		t.Fatal(err)
	}
	comp, _ := app.Component("solver")
	solver := comp.(esi.EsiSolver)
	solver.SetTolerance(1e-10)
	x := make([]float64, m.NRows)
	directIters, err := solver.Solve(b, &x)
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}

	// 5. Reflection/DMI: drive the same solver with no compile-time type.
	info, ok := sreflect.Global.Lookup("esi.Solver")
	if !ok {
		t.Fatal("esi.Solver not in reflection registry")
	}
	obj, err := sreflect.NewObject(info, solver)
	if err != nil {
		t.Fatal(err)
	}
	res, err := obj.Call("converged")
	if err != nil || res[0].(bool) != true {
		t.Fatalf("DMI converged = %v, %v", res, err)
	}

	// 6. Distributed connection: export the operator over TCP, build a
	// second framework whose solver uses the remote proxy, and verify the
	// identical result.
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exp := dist.NewExporter(app.Fw, l)
	defer exp.Close()
	key, err := exp.Export("op", "A")
	if err != nil {
		t.Fatal(err)
	}
	remoteFw := framework.New(framework.Options{
		Flavor:    cca.FlavorInProcess | cca.FlavorDistributed,
		TypeCheck: esi.TypeChecker(),
	})
	rp, err := dist.InstallSupervisedRemoteOperator(remoteFw, "remoteA", "A", transport.TCP{}, exp.Addr(), key, esi.TypeMatrixData, orb.SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := remoteFw.Install("solver", esi.NewSolverComponent("cg")); err != nil {
		t.Fatal(err)
	}
	if _, err := remoteFw.Connect("solver", "A", "remoteA", "A"); err != nil {
		t.Fatal(err)
	}
	rcomp, _ := remoteFw.Component("solver")
	rsolver := rcomp.(esi.EsiSolver)
	rsolver.SetTolerance(1e-10)
	rx := make([]float64, m.NRows)
	remoteIters, err := rsolver.Solve(b, &rx)
	if err != nil {
		t.Fatalf("remote solve: %v", err)
	}
	// The remote solver runs unpreconditioned (no M connected), so it needs
	// MORE iterations than the local ILU0-accelerated solve — but both must
	// reach the same solution through their very different connections.
	if remoteIters <= directIters {
		t.Errorf("unpreconditioned remote (%d iters) beat ILU0 direct (%d)", remoteIters, directIters)
	}
	for i := range x {
		if math.Abs(rx[i]-x[i]) > 1e-6 {
			t.Fatalf("remote x[%d] = %v, direct %v", i, rx[i], x[i])
		}
	}

	// 7. Persist the repository and reload it into a fresh app; the SIDL
	// world and port-type searches must survive.
	var buf bytes.Buffer
	if err := app.Repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	app2 := repo.NewBuilder(repo.New(), framework.Options{})
	if err := app2.Repo.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := app2.Repo.Search(repo.Query{ProvidesType: esi.TypeSolver}); len(got) != 3 {
		t.Errorf("reloaded solver providers = %d", len(got))
	}
	if err := app2.Repo.BindFactory("esi.SolverComponent.gmres", func() cca.Component {
		return esi.NewSolverComponent("gmres")
	}); err != nil {
		t.Fatal(err)
	}
	if err := app2.Create("s", "esi.SolverComponent.gmres"); err != nil {
		t.Fatalf("create from reloaded repo: %v", err)
	}

	// 8. The configuration API saw the whole story.
	events := app.Events()
	kinds := map[cca.EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[cca.EventComponentAdded] < 3 || kinds[cca.EventConnected] < 3 {
		t.Errorf("event counts = %v", kinds)
	}
}
