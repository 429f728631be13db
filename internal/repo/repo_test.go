package repo

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
)

const solverSIDL = `
package esi {
  interface Object { string typeName(); }
  interface Operator extends Object {
    void apply(in array<double,1> x, out array<double,1> y);
  }
  interface Solver extends Operator {
    void solve(in array<double,1> b, inout array<double,1> x);
  }
}
`

const meshSIDL = `
package chad {
  interface Mesh { int numNodes(); }
}
`

// stubComponent is a minimal installable component.
type stubComponent struct {
	provides []cca.PortInfo
	uses     []cca.PortInfo
}

func (s *stubComponent) SetServices(svc cca.Services) error {
	for _, p := range s.provides {
		if err := svc.AddProvidesPort(struct{}{}, p); err != nil {
			return err
		}
	}
	for _, u := range s.uses {
		if err := svc.RegisterUsesPort(u); err != nil {
			return err
		}
	}
	return nil
}

func depositSolverWorld(t *testing.T) *Repository {
	t.Helper()
	r := New()
	if err := r.Deposit(Entry{
		Name: "esi.Interfaces", Version: "1.0",
		Description: "ESI interface standard (no factory)",
		SIDL:        solverSIDL,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Deposit(Entry{
		Name: "esi.CGComponent", Version: "0.9",
		Description: "conjugate gradient solver component",
		Provides:    []PortSpec{{Name: "solver", Type: "esi.Solver"}},
		Factory: func() cca.Component {
			return &stubComponent{provides: []cca.PortInfo{{Name: "solver", Type: "esi.Solver"}}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Deposit(Entry{
		Name: "chad.FlowComponent",
		SIDL: meshSIDL,
		Uses: []PortSpec{{Name: "linsolve", Type: "esi.Operator"}},
		Factory: func() cca.Component {
			return &stubComponent{uses: []cca.PortInfo{{Name: "linsolve", Type: "esi.Operator"}}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDepositRetrieveList(t *testing.T) {
	r := depositSolverWorld(t)
	e, err := r.Retrieve("esi.CGComponent")
	if err != nil || e.Version != "0.9.0" {
		t.Fatalf("retrieve: %+v, %v", e, err)
	}
	if _, err := r.Retrieve("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	want := []Listing{
		{Name: "chad.FlowComponent", Version: "0.0.0", HasFactory: true},
		{Name: "esi.CGComponent", Version: "0.9.0", Description: "conjugate gradient solver component", HasFactory: true},
		{Name: "esi.Interfaces", Version: "1.0.0", Description: "ESI interface standard (no factory)"},
	}
	if got := r.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("list = %+v, want %+v", got, want)
	}
}

// TestRetrieveActsOnNewestVersion holds Retrieve, Instantiate, Search and
// BindFactory to a name's newest version once several are deposited.
func TestRetrieveActsOnNewestVersion(t *testing.T) {
	r := depositSolverWorld(t)
	if err := r.Deposit(Entry{
		Name: "esi.CGComponent", Version: "1.0",
		Provides: []PortSpec{{Name: "solver", Type: "esi.Solver"}},
	}); err != nil {
		t.Fatal(err)
	}
	if e, err := r.Retrieve("esi.CGComponent"); err != nil || e.Version != "1.0.0" {
		t.Fatalf("retrieve: %+v, %v", e, err)
	}
	if _, err := r.Instantiate("esi.CGComponent"); !errors.Is(err, ErrNoFactory) {
		t.Fatalf("instantiate of the factory-less newest version: %v", err)
	}
	if hits := r.Search(Query{ProvidesType: "esi.Operator"}); len(hits) != 1 || hits[0].Version != "1.0.0" {
		t.Fatalf("search hits %+v", hits)
	}
	if err := r.BindFactory("esi.CGComponent", func() cca.Component { return &stubComponent{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Instantiate("esi.CGComponent"); err != nil {
		t.Fatalf("instantiate after bind: %v", err)
	}
	// The older version keeps its own factory-bearing entry.
	if e, v, err := r.Resolve("esi.CGComponent", "<1"); err != nil || v.String() != "0.9.0" || e.Factory == nil {
		t.Fatalf("resolve <1: %+v %s %v", e, v, err)
	}
}

// TestBindFactoryRacesInstantiate runs BindFactory against Instantiate.
// Instantiate reads the entry's Factory after dropping the lock, so
// BindFactory must replace the stored entry rather than write that field
// in place; the in-place write is a data race under -race.
func TestBindFactoryRacesInstantiate(t *testing.T) {
	r := depositSolverWorld(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := r.BindFactory("esi.CGComponent", func() cca.Component { return &stubComponent{} }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := r.Instantiate("esi.CGComponent"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestDepositValidation(t *testing.T) {
	r := New()
	if err := r.Deposit(Entry{}); !errors.Is(err, ErrBadEntry) {
		t.Errorf("empty err = %v", err)
	}
	if err := r.Deposit(Entry{Name: "x", SIDL: "not sidl"}); err == nil {
		t.Error("bad sidl accepted")
	}
	if err := r.Deposit(Entry{Name: "x", Provides: []PortSpec{{Name: "p", Type: "ghost.Type"}}}); !errors.Is(err, ErrUnknownTyp) {
		t.Errorf("unknown type err = %v", err)
	}
	if err := r.Deposit(Entry{Name: "y", SIDL: solverSIDL}); err != nil {
		t.Fatal(err)
	}
	if err := r.Deposit(Entry{Name: "y"}); !errors.Is(err, ErrVersionOrder) {
		t.Errorf("dup err = %v", err)
	}
	// Conflicting SIDL rejected atomically: the first deposit stays valid.
	if err := r.Deposit(Entry{Name: "z", SIDL: `package esi { interface Object {} }`}); err == nil {
		t.Error("conflicting SIDL accepted")
	}
	if r.Table().Lookup("esi.Solver") != "interface" {
		t.Error("table corrupted by failed deposit")
	}
}

func TestSearchByProvidedType(t *testing.T) {
	r := depositSolverWorld(t)
	// esi.Solver is a subtype of esi.Operator, so a search for Operator
	// providers must find the CG component.
	hits := r.Search(Query{ProvidesType: "esi.Operator"})
	if len(hits) != 1 || hits[0].Name != "esi.CGComponent" {
		t.Fatalf("hits = %+v", hits)
	}
	if hits := r.Search(Query{ProvidesType: "chad.Mesh"}); len(hits) != 0 {
		t.Errorf("mesh provider hits = %v", hits)
	}
}

func TestSearchByUsesAndName(t *testing.T) {
	r := depositSolverWorld(t)
	hits := r.Search(Query{UsesType: "esi.Solver"})
	// chad.FlowComponent uses esi.Operator; a Solver (subtype) client
	// query matches since Solver is usable where Operator is used.
	if len(hits) != 1 || hits[0].Name != "chad.FlowComponent" {
		t.Fatalf("uses hits = %+v", hits)
	}
	if hits := r.Search(Query{}); len(hits) != 3 {
		t.Errorf("match-all hits = %d", len(hits))
	}
}

func TestInstantiate(t *testing.T) {
	r := depositSolverWorld(t)
	c, err := r.Instantiate("esi.CGComponent")
	if err != nil || c == nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := r.Instantiate("esi.Interfaces"); !errors.Is(err, ErrNoFactory) {
		t.Errorf("no-factory err = %v", err)
	}
}

func TestTypeCheckerSubtyping(t *testing.T) {
	r := depositSolverWorld(t)
	check := r.TypeChecker()
	if err := check("esi.Operator", "esi.Solver"); err != nil {
		t.Errorf("solver-as-operator rejected: %v", err)
	}
	if err := check("esi.Solver", "esi.Operator"); !errors.Is(err, cca.ErrTypeMismatch) {
		t.Errorf("operator-as-solver accepted: %v", err)
	}
	if err := check("", "esi.Solver"); err != nil {
		t.Errorf("wildcard rejected: %v", err)
	}
	if err := check("a.B", "c.D"); !errors.Is(err, cca.ErrTypeMismatch) {
		t.Errorf("unknown-type fallthrough: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	r := depositSolverWorld(t)
	d := r.Describe()
	for _, want := range []string{"esi.CGComponent v0.9", "provides solver", "uses     linsolve", "conjugate gradient"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q:\n%s", want, d)
		}
	}
}

func TestBuilderCreateConnect(t *testing.T) {
	r := depositSolverWorld(t)
	b := NewBuilder(r, framework.Options{})
	if err := b.Create("solver1", "esi.CGComponent"); err != nil {
		t.Fatal(err)
	}
	if err := b.Create("flow1", "chad.FlowComponent"); err != nil {
		t.Fatal(err)
	}
	// Subtype-aware connection: flow uses esi.Operator, solver provides
	// esi.Solver (a subtype).
	id, err := b.AutoConnect("flow1", "solver1")
	if err != nil {
		t.Fatal(err)
	}
	if id.UsesPort != "linsolve" || id.ProvidesPort != "solver" {
		t.Errorf("auto-connected %v", id)
	}
	events := b.Events()
	kinds := map[cca.EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[cca.EventComponentAdded] != 2 || kinds[cca.EventConnected] != 1 {
		t.Errorf("events = %v", kinds)
	}
}

func TestBuilderErrors(t *testing.T) {
	r := depositSolverWorld(t)
	b := NewBuilder(r, framework.Options{})
	if err := b.Create("x", "ghost.Component"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, err := b.AutoConnect("a", "b"); !errors.Is(err, ErrBuilder) {
		t.Errorf("err = %v", err)
	}
	// No compatible ports: two solver providers.
	if err := b.Create("s1", "esi.CGComponent"); err != nil {
		t.Fatal(err)
	}
	if err := b.Create("s2", "esi.CGComponent"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AutoConnect("s1", "s2"); !errors.Is(err, ErrBuilder) {
		t.Errorf("err = %v", err)
	}
}
