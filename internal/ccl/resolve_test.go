package ccl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/esi"
	"repro/internal/repo"
)

// newESIApp is the Go-programmed twin's container: a builder over a
// repository holding the ESI deposits.
func newESIApp(t *testing.T) *repo.Builder {
	t.Helper()
	r := repo.New()
	if err := esi.Deposit(r); err != nil {
		t.Fatal(err)
	}
	return repo.NewBuilder(r, framework.Options{Flavor: cca.FlavorInProcess | cca.FlavorDistributed})
}

// TestRepositorySourceResolve resolves against the application
// container's own repository as a ccl.Source: a version must still
// satisfy the constraint, so an assembly pinned to ^2.0 fails loudly
// against a 1.x deposit.
func TestRepositorySourceResolve(t *testing.T) {
	app := newESIApp(t)
	src := app.Repo

	e, v, err := src.Resolve("esi.SolverComponent.cg", "^1.0")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1.0.0" || e.Name != "esi.SolverComponent.cg" {
		t.Fatalf("resolved %s@%s", e.Name, v)
	}
	if _, _, err := src.Resolve("esi.SolverComponent.cg", "^2.0"); !errors.Is(err, repo.ErrNoMatch) {
		t.Fatalf("^2.0 against a 1.0 deposit: %v", err)
	}
	if _, _, err := src.Resolve("no.Such", ""); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("unknown type: %v", err)
	}
	if _, _, err := src.Resolve("esi.SolverComponent.cg", "^^"); err == nil {
		t.Fatal("bad constraint accepted")
	}

	// Unversioned local deposits count as 0.0.0.
	if err := app.Repo.Deposit(repo.Entry{Name: "x.Bare", Description: "unversioned"}); err != nil {
		t.Fatal(err)
	}
	if _, v, err := src.Resolve("x.Bare", ""); err != nil || v.String() != "0.0.0" {
		t.Fatalf("unversioned: v=%s err=%v", v, err)
	}
	if _, _, err := src.Resolve("x.Bare", "^1.0"); !errors.Is(err, repo.ErrNoMatch) {
		t.Fatalf("^1.0 against unversioned: %v", err)
	}
}

func TestResolveComponents(t *testing.T) {
	app := newESIApp(t)
	doc, err := Parse(`ccl 1
component op {
  provider poisson
}
component solver {
  type esi.SolverComponent.gmres
  version >=1.0 <2.0
}
`, ParseOptions{Path: "t.ccl"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(doc); err != nil {
		t.Fatal(err)
	}
	res, rev, err := ResolveComponents(doc, app.Repo, "local")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := app.Repo.Revision(); rev != want || len(res) != 1 {
		t.Fatalf("rev=%d res=%v", rev, res)
	}
	r := res[0]
	if r.Instance != "solver" || r.Type != "esi.SolverComponent.gmres" ||
		r.Version.String() != "1.0.0" || r.Source != "local" || r.Entry == nil {
		t.Fatalf("resolution %+v", r)
	}

	// A failing constraint reports the declaration position.
	doc.Components[1].Constraint = "^3"
	if _, _, err := ResolveComponents(doc, app.Repo, "local"); !errors.Is(err, repo.ErrNoMatch) {
		t.Fatalf("want ErrNoMatch, got %v", err)
	}
}

func TestLockEncodeDeterministic(t *testing.T) {
	doc := &Document{Name: "a"}
	res := []Resolution{
		{Instance: "z", Type: "t.Z", Constraint: "^1", Version: repo.Version{Major: 1}, Source: "local"},
		{Instance: "a", Type: "t.A", Version: repo.Version{Major: 2}, Source: "local"},
	}
	l := NewLock(doc, res, 7)
	if l.Components[0].Instance != "a" || l.Components[1].Instance != "z" {
		t.Fatalf("lock not sorted by instance: %+v", l.Components)
	}
	if !bytes.Equal(l.Encode(), NewLock(doc, res, 7).Encode()) {
		t.Fatal("encoding not deterministic")
	}
	back, err := DecodeLock(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Components) != 2 || back.Components[1].Version != "1.0.0" || back.Revision != 7 {
		t.Fatalf("round trip %+v", back)
	}
	if _, err := DecodeLock([]byte("{")); err == nil {
		t.Fatal("truncated lockfile accepted")
	}
}

func TestVerifyOrCreate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.ccl.lock")
	want := NewLock(&Document{Name: "app"}, []Resolution{
		{Instance: "s", Type: "t.S", Constraint: "^1.0", Version: repo.Version{Major: 1, Minor: 2}, Source: "repository"},
	}, 3)

	created, err := VerifyOrCreate(path, want)
	if err != nil || !created {
		t.Fatalf("first verify: created=%v err=%v", created, err)
	}
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(data, want.Encode()) {
		t.Fatalf("lockfile content mismatch: %v", err)
	}

	// Same resolution at a different revision still verifies: revisions
	// are informational.
	again := NewLock(&Document{Name: "app"}, []Resolution{
		{Instance: "s", Type: "t.S", Constraint: "^1.0", Version: repo.Version{Major: 1, Minor: 2}, Source: "repository"},
	}, 99)
	if created, err := VerifyOrCreate(path, again); err != nil || created {
		t.Fatalf("re-verify: created=%v err=%v", created, err)
	}

	// A shifted version is a mismatch.
	shifted := NewLock(&Document{Name: "app"}, []Resolution{
		{Instance: "s", Type: "t.S", Constraint: "^1.0", Version: repo.Version{Major: 1, Minor: 3}, Source: "repository"},
	}, 99)
	if _, err := VerifyOrCreate(path, shifted); !errors.Is(err, ErrLockMismatch) {
		t.Fatalf("version shift: %v", err)
	}

	// A different component count is a mismatch.
	if _, err := VerifyOrCreate(path, NewLock(&Document{Name: "app"}, nil, 0)); !errors.Is(err, ErrLockMismatch) {
		t.Fatalf("count shift: %v", err)
	}

	// Garbage on disk is a decode error, not a silent re-lock.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyOrCreate(path, want); err == nil {
		t.Fatal("corrupt lockfile accepted")
	}
}
