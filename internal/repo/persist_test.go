package repo

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/cca"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := depositSolverWorld(t)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"formatVersion": 1`) {
		t.Errorf("missing version:\n%s", buf.String())
	}

	r2 := New()
	if err := r2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Entries and the SIDL world survive.
	if len(r2.List()) != len(r.List()) {
		t.Fatalf("lists differ: %v vs %v", r2.List(), r.List())
	}
	if r2.Table().Lookup("esi.Solver") != "interface" {
		t.Error("SIDL world not rebuilt")
	}
	// Subtype-aware search still works on the loaded repository.
	hits := r2.Search(Query{ProvidesType: "esi.Operator"})
	if len(hits) != 1 || hits[0].Name != "esi.CGComponent" {
		t.Errorf("hits = %+v", hits)
	}
	// Factories are gone until re-bound.
	if _, err := r2.Instantiate("esi.CGComponent"); !errors.Is(err, ErrNoFactory) {
		t.Errorf("err = %v", err)
	}
	if err := r2.BindFactory("esi.CGComponent", func() cca.Component {
		return &stubComponent{}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Instantiate("esi.CGComponent"); err != nil {
		t.Errorf("post-bind instantiate: %v", err)
	}
	if err := r2.BindFactory("ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("bind ghost err = %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	r := New()
	if err := r.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := r.Load(strings.NewReader(`{"formatVersion": 9}`)); !errors.Is(err, ErrBadEntry) {
		t.Errorf("version err = %v", err)
	}
	// Conflicting deposit inside the stream is rejected atomically.
	var buf bytes.Buffer
	src := depositSolverWorld(t)
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := depositSolverWorld(t) // already has the same names
	if err := dst.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrVersionOrder) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestSaveFlavorRoundTrip(t *testing.T) {
	r := New()
	if err := r.Deposit(Entry{Name: "p", Flavor: cca.FlavorCollective | cca.FlavorInProcess}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := New()
	if err := r2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	e, err := r2.Retrieve("p")
	if err != nil {
		t.Fatal(err)
	}
	if e.Flavor != cca.FlavorCollective|cca.FlavorInProcess {
		t.Errorf("flavor = %v", e.Flavor)
	}
}
