// Package repo implements the CCA Repository API of the paper's Figure 2 —
// "the functionality necessary to search a framework repository for
// components as well as to manipulate components within the repository" —
// as one versioned component store, reachable in-process from every
// application container and, bound to an ORB object adapter (Bind), over
// the wire as the `cca/repo` object that `ccarepo serve` exposes and whole
// teams of frameworks resolve components from.
//
// A repository entry couples a component's SIDL interface description with
// its port specifications and an instantiation factory. Search supports
// name matching and port-type matching with SIDL subtype compatibility, so
// a builder can ask "which deposited components provide something usable
// as esi.Operator?". The Builder (builder.go) is the composition tool that
// instantiates entries into a framework and wires their ports; it is the
// single target that the declarative assembly language in
// repro/internal/ccl, cmd/ccafe's verbs and the examples lower onto.
//
// Deposits are append-only with per-name monotonic semantic versions
// (version.go), and the store carries a global revision that bumps on
// every deposited entry. Resolve picks the newest version satisfying a
// constraint ("^1.2", ">=1 <2"); Retrieve, Instantiate, Search and the
// Builder act on each name's newest version. Remote clients (client.go)
// resolve through an ETag-style cache that one head() round trip
// revalidates wholesale. Factories never cross the wire — code does not
// serialize — so each site re-binds factories (BindFactory) or supplies
// providers for the implementations it holds, exactly as with Save/Load
// persistence (persist.go).
package repo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cca"
	"repro/internal/sidl"
)

// Repository errors.
var (
	ErrNotFound   = errors.New("repo: component not found")
	ErrNoFactory  = errors.New("repo: component has no factory")
	ErrBadEntry   = errors.New("repo: invalid entry")
	ErrUnknownTyp = errors.New("repo: port type not described by any deposited SIDL")
	// ErrVersionOrder rejects a deposit whose version does not exceed every
	// already-deposited version of the same component name.
	ErrVersionOrder = errors.New("repo: deposit version not monotonic")
	// ErrNoMatch reports a constraint no deposited version satisfies.
	ErrNoMatch = errors.New("repo: no deposited version matches constraint")
)

// PortSpec declares one port a component exposes or consumes.
type PortSpec struct {
	// Name is the port instance name the component registers.
	Name string
	// Type is the SIDL type name of the port interface.
	Type string
}

// Entry is one deposited component description.
type Entry struct {
	// Name is the component's type name (e.g. "esi.CGSolverComponent").
	Name string
	// Version is a semantic version (version.go); empty means 0.0.0. The
	// store keeps it in canonical form ("1.0" is stored as "1.0.0").
	Version string
	// Description is a one-line summary for listings.
	Description string
	// SIDL is the interface definition source deposited alongside the
	// component; it is parsed, resolved, and merged into the repository's
	// symbol table.
	SIDL string
	// Provides and Uses list the component's ports.
	Provides []PortSpec
	Uses     []PortSpec
	// Flavor is the compliance flavor the component requires.
	Flavor cca.Flavor
	// Factory instantiates the component. Entries without factories are
	// interface-only deposits (pure standards, like the ESI interfaces).
	Factory func() cca.Component
}

// stored is one deposited (name, version) pair. Stored entries are never
// written in place, so readers may use them after dropping the lock.
type stored struct {
	v Version
	e *Entry
}

// Repository stores every deposited version of every component and the
// SIDL world their sources merge into.
type Repository struct {
	mu       sync.RWMutex
	revision int64
	entries  map[string][]stored // per name, ascending by version
	files    []*sidl.File
	table    *sidl.Table
}

// New creates an empty repository.
func New() *Repository {
	tbl, err := sidl.Resolve()
	if err != nil {
		panic("repo: resolving empty table: " + err.Error()) // cannot happen
	}
	return &Repository{entries: map[string][]stored{}, table: tbl}
}

// Revision returns the store revision: 0 when empty, plus one for every
// deposited entry. Deposits are append-only and (name, version) pairs
// immutable, so a resolution made at revision R stays valid until the
// revision moves. The error is always nil; it is there so the repository
// and a remote Client answer the same resolver interface.
func (r *Repository) Revision() (int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.revision, nil
}

// Deposit adds one component version; it is DepositAll of one entry.
func (r *Repository) Deposit(e Entry) error {
	return r.DepositAll([]Entry{e})
}

// DepositAll deposits a batch atomically. Each entry's version must parse
// and be strictly greater than every version of the same name deposited
// before it, in the store or earlier in the batch (monotonic versioning —
// the property that makes client caches revalidatable by revision alone).
// All SIDL sources merge before any port type validates, so batch entries
// may reference interfaces other batch entries define, in any order, and a
// deposit whose definitions conflict with the store is rejected. On success
// the revision advances by len(entries); on any error nothing is stored.
func (r *Repository) DepositAll(entries []Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	// Phase 1: versions and SIDL sources.
	top := map[string]Version{}
	adds := make([]stored, 0, len(entries))
	files := append([]*sidl.File(nil), r.files...)
	for i := range entries {
		e := entries[i] // copy; the stored entry is private to the store
		if e.Name == "" {
			return fmt.Errorf("%w: empty name", ErrBadEntry)
		}
		v := Version{}
		if strings.TrimSpace(e.Version) != "" {
			var err error
			if v, err = ParseVersion(e.Version); err != nil {
				return fmt.Errorf("repo: deposit %q: %w", e.Name, err)
			}
		}
		t, seen := top[e.Name]
		if have := r.entries[e.Name]; !seen && len(have) > 0 {
			t, seen = have[len(have)-1].v, true
		}
		if seen && !t.Less(v) {
			return fmt.Errorf("%w: %s v%s does not exceed deposited v%s", ErrVersionOrder, e.Name, v, t)
		}
		top[e.Name] = v
		e.Version = v.String()
		if e.SIDL != "" {
			f, err := sidl.Parse(e.SIDL)
			if err != nil {
				return fmt.Errorf("%w: deposit %q: %w", ErrBadEntry, e.Name, err)
			}
			files = append(files, f)
		}
		adds = append(adds, stored{v: v, e: &e})
	}

	// Phase 2: resolve the merged SIDL world, then validate every port
	// type against it.
	table, err := sidl.Resolve(files...)
	if err != nil {
		return fmt.Errorf("%w: deposit: %w", ErrBadEntry, err)
	}
	for _, a := range adds {
		for _, ps := range append(append([]PortSpec(nil), a.e.Provides...), a.e.Uses...) {
			if ps.Type == "" || ps.Name == "" {
				return fmt.Errorf("%w: port %q/%q of %s", ErrBadEntry, ps.Name, ps.Type, a.e.Name)
			}
			if table.Lookup(ps.Type) == "" {
				return fmt.Errorf("%w: %q (port %s of %s)", ErrUnknownTyp, ps.Type, ps.Name, a.e.Name)
			}
		}
	}

	// Commit.
	for _, a := range adds {
		r.entries[a.e.Name] = append(r.entries[a.e.Name], a)
		r.revision++
	}
	r.files = files
	r.table = table
	return nil
}

// Retrieve fetches the newest deposited version of a name.
func (r *Repository) Retrieve(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	have := r.entries[name]
	if len(have) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return have[len(have)-1].e, nil
}

// Resolve returns the highest deposited version of name satisfying the
// constraint.
func (r *Repository) Resolve(name, constraint string) (*Entry, Version, error) {
	c, err := ParseConstraint(constraint)
	if err != nil {
		return nil, Version{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	have := r.entries[name]
	if len(have) == 0 {
		return nil, Version{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for i := len(have) - 1; i >= 0; i-- {
		if c.Match(have[i].v) {
			return have[i].e, have[i].v, nil
		}
	}
	return nil, Version{}, fmt.Errorf("%w: %s has no version matching %q", ErrNoMatch, name, c)
}

// all returns every deposited entry, sorted by name then version.
func (r *Repository) all() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*Entry
	for _, n := range names {
		for _, s := range r.entries[n] {
			out = append(out, s.e)
		}
	}
	return out
}

// Listing is one row of a repository listing.
type Listing struct {
	Name        string `json:"name"`
	Version     string `json:"version"`
	Description string `json:"description,omitempty"`
	HasFactory  bool   `json:"hasFactory,omitempty"`
}

// List returns every deposited (name, version) pair, sorted by name then
// version.
func (r *Repository) List() []Listing {
	var out []Listing
	for _, e := range r.all() {
		out = append(out, Listing{Name: e.Name, Version: e.Version, Description: e.Description, HasFactory: e.Factory != nil})
	}
	return out
}

// Describe renders a human-readable listing of every deposited version
// with its ports.
func (r *Repository) Describe() string {
	var b strings.Builder
	for _, e := range r.all() {
		fmt.Fprintf(&b, "%s v%s", e.Name, e.Version)
		if e.Description != "" {
			fmt.Fprintf(&b, " — %s", e.Description)
		}
		b.WriteString("\n")
		for _, p := range e.Provides {
			fmt.Fprintf(&b, "  provides %-16s %s\n", p.Name, p.Type)
		}
		for _, u := range e.Uses {
			fmt.Fprintf(&b, "  uses     %-16s %s\n", u.Name, u.Type)
		}
	}
	return b.String()
}

// Table returns the repository's merged SIDL symbol table.
func (r *Repository) Table() *sidl.Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table
}

// Query selects components. Zero fields match everything; set fields are
// conjunctive.
type Query struct {
	// ProvidesType matches components providing a port whose type is a
	// SIDL subtype of (usable as) this type.
	ProvidesType string
	// UsesType matches components using a port of exactly this type or a
	// supertype of it.
	UsesType string
}

// Search returns the newest version of every matching component, sorted by
// name.
func (r *Repository) Search(q Query) []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Entry
	for _, have := range r.entries {
		e := have[len(have)-1].e
		if q.ProvidesType != "" {
			found := false
			for _, ps := range e.Provides {
				if r.table.IsSubtype(ps.Type, q.ProvidesType) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		if q.UsesType != "" {
			found := false
			for _, ps := range e.Uses {
				if r.table.IsSubtype(q.UsesType, ps.Type) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Instantiate creates a fresh component instance from the factory of a
// name's newest version.
func (r *Repository) Instantiate(name string) (cca.Component, error) {
	e, err := r.Retrieve(name)
	if err != nil {
		return nil, err
	}
	if e.Factory == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoFactory, name)
	}
	return e.Factory(), nil
}

// CheckPortType is the paper's §4 port compatibility rule ("object-oriented
// type compatibility of the port interfaces, as can be described in the
// SIDL") over tbl: a uses port of type U may connect to a provides port of
// type P when P is a SIDL subtype of U. Types absent from tbl (or a nil
// tbl) fall back to exact matching; empty names are wildcards (untyped
// ports).
func CheckPortType(tbl *sidl.Table, usesType, providesType string) error {
	if usesType == "" || providesType == "" || usesType == providesType {
		return nil
	}
	if tbl != nil && tbl.Lookup(usesType) != "" && tbl.Lookup(providesType) != "" && tbl.IsSubtype(providesType, usesType) {
		return nil
	}
	return fmt.Errorf("%w: provides %q is not usable as %q", cca.ErrTypeMismatch, providesType, usesType)
}

// TypeChecker returns CheckPortType over the repository's current SIDL
// table, suitable for framework.Options.
func (r *Repository) TypeChecker() func(usesType, providesType string) error {
	return func(u, p string) error { return CheckPortType(r.Table(), u, p) }
}
