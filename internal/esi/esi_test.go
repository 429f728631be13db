package esi

import (
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/linalg"
	"repro/internal/sidl"
	"repro/internal/sidl/codegen"
	"repro/internal/sidl/sreflect"
)

// TestBindingsAreCurrent regenerates the Go bindings from the checked-in
// SIDL sources and verifies bindings_gen.go matches — the golden test tying
// the committed code to the compiler.
func TestBindingsAreCurrent(t *testing.T) {
	var files []*sidl.File
	for _, path := range []string{"esi.sidl", "ports.sidl"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sidl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		files = append(files, f)
	}
	tbl, err := sidl.Resolve(files...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codegen.Generate(tbl, codegen.Options{PackageName: "esi", Reflection: true})
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, err := os.ReadFile("bindings_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	// The checked-in file is gofmt-ed; compare modulo whitespace lines.
	norm := func(s string) string {
		var b strings.Builder
		for _, line := range strings.Split(s, "\n") {
			b.WriteString(strings.Join(strings.Fields(line), " "))
			b.WriteString("\n")
		}
		return b.String()
	}
	if norm(string(gotRaw)) != norm(want) {
		t.Error("bindings_gen.go is stale; regenerate with:\n  go run ./cmd/sidlc -gen -pkg esi -reflection -o internal/esi/bindings_gen.go internal/esi/esi.sidl internal/esi/ports.sidl && gofmt -w internal/esi/bindings_gen.go")
	}
}

// TestReflectionRegistered verifies the generated init() populated the
// global reflection registry.
func TestReflectionRegistered(t *testing.T) {
	info, ok := sreflect.Global.Lookup("esi.Solver")
	if !ok {
		t.Fatal("esi.Solver not in global registry")
	}
	if _, ok := info.Method("solve"); !ok {
		t.Error("solve method missing from reflection data")
	}
	if md, ok := sreflect.Global.Lookup("esi.MatrixData"); !ok || len(md.Extends) != 1 || md.Extends[0] != "esi.Operator" {
		t.Error("subtype chain missing in registry")
	}
}

// wireSolver builds the canonical three-component assembly:
// operator --A--> solver, operator --A--> preconditioner --M--> solver.
func wireSolver(t *testing.T, method, precKind string, m *linalg.CSR) (*framework.Framework, EsiSolver) {
	t.Helper()
	f := framework.New(framework.Options{TypeCheck: TypeChecker()})
	if err := f.Install("op", NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("solver", NewSolverComponent(method)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("solver", "A", "op", "A"); err != nil {
		t.Fatal(err)
	}
	if precKind != "" {
		if err := f.Install("prec", NewPreconditionerComponent(precKind)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Connect("prec", "A", "op", "A"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Connect("solver", "M", "prec", "M"); err != nil {
			t.Fatal(err)
		}
	}
	comp, _ := f.Component("solver")
	return f, comp.(EsiSolver)
}

func manufactured(t *testing.T, m *linalg.CSR) []float64 {
	t.Helper()
	b := make([]float64, m.NRows)
	if err := m.Apply(linalg.Ones(m.NCols), b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSolveThroughPorts(t *testing.T) {
	m := linalg.Poisson2D(16, 16)
	b := manufactured(t, m)
	_, solver := wireSolver(t, "cg", "", m)
	solver.SetTolerance(1e-10)
	x := make([]float64, m.NRows)
	iters, err := solver.Solve(b, &x)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if iters == 0 || !solver.Converged() {
		t.Fatalf("iters=%d converged=%v", iters, solver.Converged())
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
	if solver.FinalResidual() > 1e-10 {
		t.Errorf("residual = %v", solver.FinalResidual())
	}
}

func TestSolverSwapWithoutRewiring(t *testing.T) {
	// The §2.2 experiment: same operator, three methods, identical wiring.
	m := linalg.AdvDiff2D(12, 12, 6, 3)
	b := manufactured(t, m)
	for _, method := range []string{"gmres", "bicgstab"} {
		_, solver := wireSolver(t, method, "", m)
		solver.SetTolerance(1e-9)
		x := make([]float64, m.NRows)
		if _, err := solver.Solve(b, &x); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for i, v := range x {
			if math.Abs(v-1) > 1e-5 {
				t.Fatalf("%s: x[%d] = %v", method, i, v)
			}
		}
	}
}

func TestPreconditionersThroughPorts(t *testing.T) {
	m := linalg.Poisson2D(24, 24)
	b := manufactured(t, m)
	iterCounts := map[string]int32{}
	for _, kind := range []string{"", "jacobi", "ilu0", "sor"} {
		f, solver := wireSolver(t, "cg", kind, m)
		solver.SetTolerance(1e-10)
		x := make([]float64, m.NRows)
		iters, err := solver.Solve(b, &x)
		if err != nil {
			t.Fatalf("prec %q: %v", kind, err)
		}
		iterCounts[kind] = iters
		// The solve released the preconditioner it used, so the port drains.
		if kind != "" {
			if err := f.Quiesce("prec", "M", 200*time.Millisecond); err != nil {
				t.Fatalf("prec %q: quiesce after a solve: %v", kind, err)
			}
		}
	}
	if iterCounts["ilu0"] >= iterCounts[""] {
		t.Errorf("ilu0 (%d iters) no better than none (%d)", iterCounts["ilu0"], iterCounts[""])
	}
}

// TestSolveDuringPreconditionerQuiesceSheds: a solve while the connected
// preconditioner is quiesced returns the typed retryable shed and leaves
// the solution vector alone, rather than run unpreconditioned; once the
// window closes the same solve takes the preconditioned iteration count.
func TestSolveDuringPreconditionerQuiesceSheds(t *testing.T) {
	m := linalg.Poisson2D(24, 24)
	b := manufactured(t, m)
	f, solver := wireSolver(t, "cg", "ilu0", m)
	solver.SetTolerance(1e-10)
	x := make([]float64, m.NRows)
	want, err := solver.Solve(b, &x) // 27 iterations; 50 unpreconditioned
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Quiesce("prec", "M", 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	x = make([]float64, m.NRows)
	x[0] = 42
	if iters, err := solver.Solve(b, &x); !errors.Is(err, cca.ErrPortQuiescing) {
		t.Fatalf("solve with M quiesced: %d iterations, err %v; want cca.ErrPortQuiescing", iters, err)
	}
	if x[0] != 42 || slices.ContainsFunc(x[1:], func(v float64) bool { return v != 0 }) {
		t.Error("a shed solve wrote the solution vector")
	}
	if err := f.Resume("prec", "M"); err != nil {
		t.Fatal(err)
	}
	x = make([]float64, m.NRows)
	got, err := solver.Solve(b, &x)
	if err != nil || got != want {
		t.Errorf("solve after the quiesce: %d iterations, err %v; want %d as before it", got, err, want)
	}
}

func TestSolverWithoutOperatorFails(t *testing.T) {
	f := framework.New(framework.Options{})
	if err := f.Install("solver", NewSolverComponent("cg")); err != nil {
		t.Fatal(err)
	}
	comp, _ := f.Component("solver")
	solver := comp.(EsiSolver)
	x := make([]float64, 4)
	_, err := solver.Solve([]float64{1, 2, 3, 4}, &x)
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SolveError", err)
	}
	if !strings.Contains(se.Message(), "no operator") {
		t.Errorf("message = %q", se.Message())
	}
}

func TestNonConvergenceSurfacesAsSolveError(t *testing.T) {
	m := linalg.Poisson2D(16, 16)
	b := manufactured(t, m)
	_, solver := wireSolver(t, "cg", "", m)
	solver.SetTolerance(1e-14)
	solver.SetMaxIterations(2)
	x := make([]float64, m.NRows)
	_, err := solver.Solve(b, &x)
	var se *SolveError
	if !errors.As(err, &se) || !strings.Contains(se.Message(), "did not converge") {
		t.Fatalf("err = %v", err)
	}
	if solver.Converged() {
		t.Error("Converged() true after failure")
	}
}

func TestOperatorComponentDirectAndStub(t *testing.T) {
	// The same implementation must work directly and through the
	// generated SIDL stub (the 2-3-call binding of §6.2).
	m := linalg.Laplace1D(8)
	op := NewOperatorComponent(m)
	stub := NewEsiMatrixDataStub(op)
	if stub.Rows() != 8 || stub.Nonzeros() != int32(m.NNZ()) {
		t.Errorf("stub reports %d rows, %d nnz", stub.Rows(), stub.Nonzeros())
	}
	x := linalg.Ones(8)
	var yDirect, yStub []float64
	if err := op.Apply(x, &yDirect); err != nil {
		t.Fatal(err)
	}
	if err := stub.Apply(x, &yStub); err != nil {
		t.Fatal(err)
	}
	for i := range yDirect {
		if yDirect[i] != yStub[i] {
			t.Fatalf("stub and direct disagree at %d", i)
		}
	}
	var d []float64
	if err := stub.Diagonal(&d); err != nil || len(d) != 8 || d[0] != 2 {
		t.Errorf("diagonal via stub: %v %v", d, err)
	}
	if stub.TypeName() != "esi.OperatorComponent" {
		t.Errorf("typeName via stub = %q", stub.TypeName())
	}
}

func TestPreconditionerNeedsDirectForILU(t *testing.T) {
	// When the A connection is proxied (not direct), the CSR escape hatch
	// disappears and ILU0 must fail gracefully while Jacobi still works.
	m := linalg.Poisson2D(8, 8)
	proxied := framework.Options{
		TypeCheck: TypeChecker(),
		Proxy: func(p cca.Port, info cca.PortInfo) cca.Port {
			if md, ok := p.(EsiMatrixData); ok {
				return NewEsiMatrixDataStub(md) // stub hides CSRSource
			}
			return p
		},
	}
	f := framework.New(proxied)
	if err := f.Install("op", NewOperatorComponent(m)); err != nil {
		t.Fatal(err)
	}
	for kind, wantOK := range map[string]bool{"jacobi": true, "ilu0": false} {
		name := "prec-" + kind
		if err := f.Install(name, NewPreconditionerComponent(kind)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Connect(name, "A", "op", "A"); err != nil {
			t.Fatal(err)
		}
		comp, _ := f.Component(name)
		pc := comp.(EsiPreconditioner)
		r := linalg.Ones(m.NRows)
		var z []float64
		err := pc.Precondition(r, &z)
		if wantOK && err != nil {
			t.Errorf("%s through proxy: %v", kind, err)
		}
		if !wantOK && err == nil {
			t.Errorf("%s through proxy unexpectedly succeeded", kind)
		}
	}
}

func TestEnumBinding(t *testing.T) {
	if EsiReasonConverged != 0 || EsiReasonBreakdown != 10 {
		t.Errorf("enum values: %d %d", EsiReasonConverged, EsiReasonBreakdown)
	}
	if EsiReasonBreakdown.String() != "Breakdown" {
		t.Errorf("String = %q", EsiReasonBreakdown.String())
	}
	if EsiReason(99).String() != "esi.Reason(?)" {
		t.Errorf("unknown = %q", EsiReason(99).String())
	}
}

func TestDynamicInvocationOfComponent(t *testing.T) {
	// §5's DMI path against a live component.
	m := linalg.Laplace1D(4)
	op := NewOperatorComponent(m)
	info, ok := sreflect.Global.Lookup("esi.MatrixData")
	if !ok {
		t.Fatal("esi.MatrixData not registered")
	}
	obj, err := sreflect.NewObject(info, op)
	if err != nil {
		t.Fatal(err)
	}
	res, err := obj.Call("rows")
	if err != nil || res[0].(int32) != 4 {
		t.Fatalf("rows = %v, %v", res, err)
	}
	res, err = obj.Call("nonzeros")
	if err != nil || res[0].(int32) != int32(m.NNZ()) {
		t.Fatalf("nonzeros = %v, %v", res, err)
	}
}

// newTestFramework builds a framework with the ESI subtype checker, shared
// by the stub tests.
func newTestFramework(t *testing.T) *framework.Framework {
	t.Helper()
	return framework.New(framework.Options{TypeCheck: TypeChecker()})
}
