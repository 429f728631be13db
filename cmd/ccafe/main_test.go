package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccl"
)

// TestVerbsAreStatements holds every assembling verb to the CCL statement
// the package comment says it is shorthand for: after each row, the shell's
// assembly and one built by applying the statement text have the same
// components, connections and export keys.
func TestVerbsAreStatements(t *testing.T) {
	newAssembly := func() *ccl.Assembly {
		a, err := ccl.New(ccl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		return a
	}
	sh := &shell{asm: newAssembly(), src: "verbs"}
	ref := newAssembly()
	// Connections lists in map order; compare it sorted.
	connections := func(a *ccl.Assembly) []string {
		var ids []string
		for _, id := range a.App.Fw.Connections() {
			ids = append(ids, id.String())
		}
		sort.Strings(ids)
		return ids
	}
	exportKeys := func(a *ccl.Assembly) []string {
		var keys []string
		for _, e := range a.Exports {
			keys = append(keys, e.Key)
		}
		return keys
	}

	// ${ADDR} is where the shell's first export came up; both sides dial it.
	for _, row := range []struct{ verb, stmt string }{
		{"matrix A poisson 6", "component A {\n  provider poisson\n  config {\n    n 6\n  }\n}"},
		{"matrix B advdiff 6 1 2", "component B {\n  provider advdiff\n  config {\n    n 6\n    vx 1\n    vy 2\n  }\n}"},
		{"create solver esi.SolverComponent.cg", "component solver {\n  type esi.SolverComponent.cg\n}"},
		{"connect solver A A A", "connect solver.A -> A.A"},
		{"export A A", "export A.A {\n}"},
		{"export B A 127.0.0.1:0", "export B.A {\n  address \"127.0.0.1:0\"\n}"},
		{"remote far ${ADDR} A/A", "remote far {\n  address \"${ADDR}\"\n  key A/A\n}"},
		{"remote far2 ${ADDR} A/A esi.Operator", "remote far2 {\n  address \"${ADDR}\"\n  key A/A\n  type esi.Operator\n}"},
		{"create prec esi.PreconditionerComponent.jacobi", "component prec {\n  type esi.PreconditionerComponent.jacobi\n}"},
		{"connect prec A far A", "connect prec.A -> far.A"},
	} {
		addr := ""
		if len(sh.asm.Exports) > 0 {
			addr = sh.asm.Exports[0].Addr
		}
		if sh.exec(strings.ReplaceAll(row.verb, "${ADDR}", addr)) {
			t.Fatalf("%q quit the shell", row.verb)
		}
		doc, err := ccl.Parse("ccl 1\n"+row.stmt+"\n", ccl.ParseOptions{Path: "stmt", Vars: map[string]string{"ADDR": addr}})
		if err != nil {
			t.Fatalf("%q: %v", row.stmt, err)
		}
		if err := ref.Apply(doc, ""); err != nil {
			t.Fatalf("%q: %v", row.stmt, err)
		}
		got, want := sh.asm.App.Fw, ref.App.Fw
		if !reflect.DeepEqual(got.ComponentNames(), want.ComponentNames()) {
			t.Fatalf("%q: components %v, statement gives %v", row.verb, got.ComponentNames(), want.ComponentNames())
		}
		if !reflect.DeepEqual(connections(sh.asm), connections(ref)) {
			t.Fatalf("%q: connections %v, statement gives %v", row.verb, connections(sh.asm), connections(ref))
		}
		if !reflect.DeepEqual(exportKeys(sh.asm), exportKeys(ref)) {
			t.Fatalf("%q: export keys %v, statement gives %v", row.verb, exportKeys(sh.asm), exportKeys(ref))
		}
	}
	if n := len(sh.asm.App.Fw.ComponentNames()); n != 6 {
		t.Fatalf("session ended with %d components, want 6", n)
	}
}
