package dist

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/transport"
)

// exportOperator builds a "server" framework hosting an OperatorComponent,
// exports its A port, and returns the exporter.
func exportOperator(t *testing.T, tr transport.Transport, addr string, m *linalg.CSR) (*Exporter, string) {
	t.Helper()
	server := framework.New(framework.Options{})
	if err := server.Install("op", esi.NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExporter(server, l)
	key, err := exp.Export("op", "A")
	if err != nil {
		t.Fatal(err)
	}
	if key != "op/A" {
		t.Fatalf("key = %q", key)
	}
	return exp, key
}

func TestRemoteOperatorRoundTrip(t *testing.T) {
	tr := &transport.InProc{}
	m := linalg.Laplace1D(6)
	exp, key := exportOperator(t, tr, "srv", m)
	defer exp.Close()

	rp, err := DialSupervised(tr, "srv", key, esi.TypeMatrixData, orb.SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	remote := &RemoteMatrixData{RemoteOperator{R: rp}}

	if remote.Rows() != 6 || remote.Nonzeros() != int32(m.NNZ()) {
		t.Errorf("rows=%d nnz=%d", remote.Rows(), remote.Nonzeros())
	}
	if got := remote.TypeName(); got != "esi.OperatorComponent" {
		t.Errorf("typeName = %q", got)
	}
	x := linalg.Ones(6)
	var y []float64
	if err := remote.Apply(x, &y); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 6)
	if err := m.Apply(x, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	var d []float64
	if err := remote.Diagonal(&d); err != nil || len(d) != 6 || d[0] != 2 {
		t.Errorf("diagonal = %v, %v", d, err)
	}
}

// TestSolveAgainstRemoteOperator is the paper's distributed-connection
// scenario: an unmodified SolverComponent solves against an operator living
// in another framework, connected through a proxy component — "without the
// components being aware of the connection type."
func TestSolveAgainstRemoteOperator(t *testing.T) {
	tr := &transport.InProc{}
	m := linalg.Poisson2D(10, 10)
	exp, key := exportOperator(t, tr, "srv2", m)
	defer exp.Close()

	client := framework.New(framework.Options{
		Flavor:    cca.FlavorInProcess | cca.FlavorDistributed,
		TypeCheck: esi.TypeChecker(),
	})
	rp, err := InstallSupervisedRemoteOperator(client, "remoteA", "A", tr, "srv2", key, esi.TypeMatrixData, orb.SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := client.Install("solver", esi.NewSolverComponent("cg")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Connect("solver", "A", "remoteA", "A"); err != nil {
		t.Fatal(err)
	}
	comp, _ := client.Component("solver")
	solver := comp.(esi.EsiSolver)
	solver.SetTolerance(1e-9)
	b := make([]float64, m.NRows)
	if err := m.Apply(linalg.Ones(m.NCols), b); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.NRows)
	iters, err := solver.Solve(b, &x)
	if err != nil {
		t.Fatalf("remote solve: %v", err)
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

// TestExportIterativeSolverPort exports the step-wise solver's
// esi.IterativeSolver port, whose object the reflection registry binds by
// SIDL method name, and drives the step loop remotely: every method the
// SIDL interface lists must exist on the component, iterations included.
func TestExportIterativeSolverPort(t *testing.T) {
	tr := &transport.InProc{}
	m := linalg.Poisson2D(6, 6)
	server := framework.New(framework.Options{TypeCheck: esi.TypeChecker()})
	if err := server.Install("op", esi.NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	if err := server.Install("isolver", esi.NewIterativeSolverComponent()); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Connect("isolver", "A", "op", "A"); err != nil {
		t.Fatal(err)
	}
	l, err := tr.Listen("srv-iter")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExporter(server, l)
	defer exp.Close()
	key, err := exp.Export("isolver", "solver")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := DialSupervised(tr, "srv-iter", key, esi.TypeIterativeSolver, orb.SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := rp.Call("begin", linalg.Ones(m.NRows)); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Call("step", int32(3)); err != nil {
		t.Fatal(err)
	}
	res, err := rp.Call("iterations")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || fmt.Sprint(res[0]) != "3" {
		t.Errorf("iterations = %v, want [3]", res)
	}
}

func TestRemoteSolveOverTCP(t *testing.T) {
	m := linalg.Laplace1D(20)
	exp, key := exportOperator(t, transport.TCP{}, "127.0.0.1:0", m)
	defer exp.Close()

	rp, err := DialSupervised(transport.TCP{}, exp.Addr(), key, esi.TypeOperator, orb.SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	remote := &RemoteOperator{R: rp}
	x := linalg.Ones(20)
	var y []float64
	if err := remote.Apply(x, &y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[1] != 0 { // Laplace1D row sums: 1 at ends, 0 inside
		t.Errorf("y = %v", y[:3])
	}
}

func TestProxyFlavorRequirement(t *testing.T) {
	tr := &transport.InProc{}
	m := linalg.Laplace1D(4)
	exp, key := exportOperator(t, tr, "srv3", m)
	defer exp.Close()

	// A framework without the distributed flavor must refuse the proxy.
	plain := framework.New(framework.Options{Flavor: cca.FlavorInProcess})
	if _, err := InstallSupervisedRemoteOperator(plain, "remoteA", "A", tr, "srv3", key, esi.TypeMatrixData, orb.SupervisorOptions{}); !errors.Is(err, framework.ErrFlavor) {
		t.Errorf("err = %v, want ErrFlavor", err)
	}
}

func TestExportErrors(t *testing.T) {
	tr := &transport.InProc{}
	fw := framework.New(framework.Options{})
	l, err := tr.Listen("srv4")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExporter(fw, l)
	defer exp.Close()
	if _, err := exp.Export("ghost", "A"); !errors.Is(err, ErrDist) {
		t.Errorf("no-component err = %v", err)
	}
	if err := fw.Install("op", esi.NewOperatorComponent(linalg.Laplace1D(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Export("op", "nope"); !errors.Is(err, ErrDist) {
		t.Errorf("no-port err = %v", err)
	}
	// Untyped adapter request.
	if _, err := InstallSupervisedRemoteOperator(fw, "x", "A", tr, "srv4", "op/A", "weird.Type", orb.SupervisorOptions{}); !errors.Is(err, ErrDist) {
		t.Errorf("adapter err = %v", err)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	tr := &transport.InProc{}
	m := linalg.Laplace1D(4)
	exp, key := exportOperator(t, tr, "srv5", m)
	defer exp.Close()
	rp, err := DialSupervised(tr, "srv5", key, esi.TypeOperator, orb.SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	remote := &RemoteOperator{R: rp}
	// Wrong-length x: the server-side Apply raises a SolveError, which must
	// surface through the wire as an error mentioning the cause.
	var y []float64
	err = remote.Apply([]float64{1, 2}, &y)
	if err == nil || !strings.Contains(err.Error(), "apply") {
		t.Errorf("err = %v", err)
	}
}
