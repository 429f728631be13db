package codegen

import (
	"errors"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/sidl"
)

const corpus = `
package esi version 1.0 {
  interface Object {
    string typeName();
  }
  interface Operator extends Object {
    void apply(in array<double,1> x, out array<double,1> y) throws esi.SolveError;
  }
  interface Solver extends Operator {
    void solve(in array<double,1> b, inout array<double,1> x, out int iters) throws esi.SolveError;
    void setTolerance(in double tol);
  }
  class SolveError { string message(); }
  enum Norm { One, Two = 5, Infinity }
}
`

func generate(t *testing.T, src string, opts Options) string {
	t.Helper()
	f, err := sidl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parseGo checks the generated source is syntactically valid Go.
func parseGo(t *testing.T, src string) {
	t.Helper()
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n---\n%s", err, src)
	}
}

func TestGenerateParses(t *testing.T) {
	out := generate(t, corpus, Options{PackageName: "esibind"})
	parseGo(t, out)
	if !strings.Contains(out, "package esibind") {
		t.Error("package clause missing")
	}
}

func TestGenerateInterfaceShape(t *testing.T) {
	out := generate(t, corpus, Options{})
	// Interface with embedded parent.
	for _, want := range []string{
		"type EsiSolver interface {",
		"EsiOperator\n",
		"Solve(b []float64, x *[]float64) (int32, error)",
		"SetTolerance(tol float64)",
		"type EsiSolverEPV struct {",
		"type EsiSolverIOR struct {",
		"type EsiSolverStub struct {",
		"func NewEsiSolverStub(impl EsiSolver) EsiSolver {",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateStubIsThreeLayer(t *testing.T) {
	out := generate(t, corpus, Options{})
	// Call 1: stub method forwards into the EPV.
	if !strings.Contains(out, "s.IOR.EPV.FSolve(s.IOR.Obj, b, x)") {
		t.Error("stub does not dispatch through the EPV")
	}
	// Call 3: skeleton closure downcasts and calls the impl.
	if !strings.Contains(out, "obj.(EsiSolver).Solve(b, x)") {
		t.Error("skeleton does not call the implementation")
	}
}

func TestGenerateEnum(t *testing.T) {
	out := generate(t, corpus, Options{})
	parseGo(t, out)
	for _, want := range []string{
		"type EsiNorm int32",
		"EsiNormOne EsiNorm = 0",
		"EsiNormTwo EsiNorm = 5",
		"EsiNormInfinity EsiNorm = 6",
		"func (v EsiNorm) String() string",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated enum missing %q", want)
		}
	}
}

func TestGenerateArrayTypes(t *testing.T) {
	src := `package p {
	  interface A {
	    void f(in array<double,1> v, in array<dcomplex,1> z, in array<int,1> idx);
	  }
	}`
	out := generate(t, src, Options{})
	parseGo(t, out)
	for _, want := range []string{"v []float64", "z []complex128", "idx []int32"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(out, "repro/internal/array") {
		t.Error("rank-1 arrays must not import an array package")
	}
}

func TestGenerateUnsupportedArray(t *testing.T) {
	for _, param := range []string{"array<double,2> m", "array<dcomplex,3> z", "array<string,3> s"} {
		src := `package p { interface A { void f(in ` + param + `); } }`
		f, err := sidl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := sidl.Resolve(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Generate(tbl, Options{}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err = %v, want ErrUnsupported", param, err)
		}
	}
}

func TestGenerateOnewayAndVoid(t *testing.T) {
	src := `package p { interface A { oneway void ping(in int n); void quiet(); } }`
	out := generate(t, src, Options{})
	parseGo(t, out)
	if !strings.Contains(out, "Ping(n int32)") {
		t.Error("oneway method missing")
	}
	if strings.Contains(out, "Ping(n int32) ") && strings.Contains(out, "Ping(n int32) error") {
		t.Error("oneway method must not return")
	}
}

func TestGenerateReflectionRegistration(t *testing.T) {
	out := generate(t, corpus, Options{Reflection: true})
	parseGo(t, out)
	for _, want := range []string{
		"sreflect.Global.Register(&sreflect.TypeInfo{",
		`QName: "esi.Solver"`,
		`{Name: "solve", GoName: "Solve"`,
		`Extends: []string{"esi.Operator"}`,
		"repro/internal/sidl/sreflect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("reflection output missing %q", want)
		}
	}
}

func TestGenerateModes(t *testing.T) {
	src := `package p { interface A { double f(in double a, inout double b, out double c); } }`
	out := generate(t, src, Options{})
	parseGo(t, out)
	if !strings.Contains(out, "F(a float64, b *float64) (float64, float64)") {
		t.Errorf("mode mapping wrong:\n%s", out)
	}
}

func TestGenerateDiamondInterface(t *testing.T) {
	src := `package p {
	  interface Root { void ping(); }
	  interface L extends Root { void left(); }
	  interface R extends Root { void right(); }
	  interface D extends L, R { void both(); }
	}`
	out := generate(t, src, Options{})
	// Go forbids duplicate methods arriving through multiple embedded
	// interfaces only if signatures conflict; identical ones are legal
	// since Go 1.14. Verify it parses and D embeds both parents.
	parseGo(t, out)
	if !strings.Contains(out, "PL\n") || !strings.Contains(out, "PR\n") {
		t.Errorf("diamond embedding missing:\n%s", out)
	}
}

func TestGoNameMapping(t *testing.T) {
	cases := map[string]string{
		"esi.Solver":    "EsiSolver",
		"gov.cca.Ports": "GovCcaPorts",
		"x":             "X",
	}
	for in, want := range cases {
		if got := goName(in); got != want {
			t.Errorf("goName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGenerateCarriesDocComments(t *testing.T) {
	src := `package p {
	  // Solver iterates until convergence.
	  interface Solver {
	    // solve runs the iteration.
	    void solve(in double tol);
	  }
	}`
	out := generate(t, src, Options{})
	parseGo(t, out)
	if !strings.Contains(out, "// Solver iterates until convergence.") {
		t.Error("interface doc lost")
	}
	if !strings.Contains(out, "\t// solve runs the iteration.") {
		t.Error("method doc lost")
	}
}

func TestGenerateFanOutTypes(t *testing.T) {
	src := `package p {
	  interface Mon {
	    oneway void observe(in int step, in array<double,1> data);
	    void reset();
	    int count();
	  }
	}`
	out := generate(t, src, Options{})
	parseGo(t, out)
	for _, want := range []string{
		"type PMonFanOut []PMon",
		"func (f PMonFanOut) Observe(step int32, data []float64) {",
		"func (f PMonFanOut) Reset() {",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fan-out missing %q", want)
		}
	}
	// Valued method must NOT fan out.
	if strings.Contains(out, "func (f PMonFanOut) Count(") {
		t.Error("valued method fanned out")
	}
}
