// Package repo implements the CCA Repository API of the paper's Figure 2 —
// "the functionality necessary to search a framework repository for
// components as well as to manipulate components within the repository" —
// in two forms: an in-process Repository embedded in every application
// container, and a networked, versioned Service (`ccarepo serve`) that
// whole teams of frameworks resolve components from.
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
// The networked half (service.go, client.go) runs the repository as an ORB
// service: deposits are append-only with per-name monotonic semantic
// versions (version.go), the store carries a global revision that bumps on
// every deposit, and clients resolve version constraints ("^1.2", ">=1 <2")
// through an ETag-style cache that one head() round trip revalidates
// wholesale. Factories never cross the wire — code does not serialize —
// so each site re-binds factories (BindFactory) or supplies providers for
// the implementations it holds, exactly as with Save/Load persistence
// (persist.go).
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
	ErrExists     = errors.New("repo: component already deposited")
	ErrNotFound   = errors.New("repo: component not found")
	ErrNoFactory  = errors.New("repo: component has no factory")
	ErrBadEntry   = errors.New("repo: invalid entry")
	ErrUnknownTyp = errors.New("repo: port type not described by any deposited SIDL")
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
	// Version is free-form ("1.0").
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

// Repository stores component descriptions and their merged SIDL world.
type Repository struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	files   []*sidl.File
	table   *sidl.Table
}

// New creates an empty repository.
func New() *Repository {
	tbl, err := sidl.Resolve()
	if err != nil {
		panic("repo: resolving empty table: " + err.Error()) // cannot happen
	}
	return &Repository{entries: map[string]*Entry{}, table: tbl}
}

// Deposit adds a component description. Its SIDL source (if any) is parsed
// and the repository-wide symbol table re-resolved, so a deposit with
// definitions conflicting with earlier deposits is rejected atomically.
func (r *Repository) Deposit(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadEntry)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, e.Name)
	}
	files := r.files
	if e.SIDL != "" {
		f, err := sidl.Parse(e.SIDL)
		if err != nil {
			return fmt.Errorf("repo: deposit %q: %w", e.Name, err)
		}
		files = append(append([]*sidl.File(nil), r.files...), f)
	}
	table, err := sidl.Resolve(files...)
	if err != nil {
		return fmt.Errorf("repo: deposit %q: %w", e.Name, err)
	}
	// Port types must be described somewhere in the merged SIDL world.
	for _, ps := range append(append([]PortSpec(nil), e.Provides...), e.Uses...) {
		if ps.Type == "" || ps.Name == "" {
			return fmt.Errorf("%w: port %q/%q", ErrBadEntry, ps.Name, ps.Type)
		}
		if table.Lookup(ps.Type) == "" {
			return fmt.Errorf("%w: %q (port %s of %s)", ErrUnknownTyp, ps.Type, ps.Name, e.Name)
		}
	}
	entry := e
	r.entries[e.Name] = &entry
	r.files = files
	r.table = table
	return nil
}

// Remove deletes a deposited component (its SIDL definitions remain merged;
// interface definitions are append-only like a standards body's archive).
func (r *Repository) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.entries, name)
	return nil
}

// Retrieve fetches a deposited entry by exact name.
func (r *Repository) Retrieve(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// List returns all deposited component names, sorted.
func (r *Repository) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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
	// NameContains matches a substring of the component name.
	NameContains string
	// ProvidesType matches components providing a port whose type is a
	// SIDL subtype of (usable as) this type.
	ProvidesType string
	// UsesType matches components using a port of exactly this type or a
	// supertype of it.
	UsesType string
	// Flavor, when nonzero, matches components whose required flavor is
	// contained in it (i.e. components runnable on such a framework).
	Flavor cca.Flavor
}

// Search returns matching entries sorted by name.
func (r *Repository) Search(q Query) []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Entry
	for _, e := range r.entries {
		if q.NameContains != "" && !strings.Contains(e.Name, q.NameContains) {
			continue
		}
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
		if q.Flavor != 0 && !q.Flavor.Contains(e.Flavor) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Instantiate creates a fresh component instance from a deposited factory.
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

// TypeChecker returns a port-compatibility checker backed by the
// repository's SIDL subtype relation, suitable for framework.Options:
// a uses port of type U may connect to a provides port of type P when P is
// usable as U. Types absent from the table fall back to exact matching;
// empty names are wildcards (untyped ports).
func (r *Repository) TypeChecker() func(usesType, providesType string) error {
	return func(usesType, providesType string) error {
		if usesType == "" || providesType == "" || usesType == providesType {
			return nil
		}
		tbl := r.Table()
		if tbl.Lookup(usesType) != "" && tbl.Lookup(providesType) != "" {
			if tbl.IsSubtype(providesType, usesType) {
				return nil
			}
		}
		return fmt.Errorf("%w: provides %q is not usable as %q", cca.ErrTypeMismatch, providesType, usesType)
	}
}

// Describe renders a human-readable repository listing.
func (r *Repository) Describe() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	for _, name := range r.listLocked() {
		e := r.entries[name]
		fmt.Fprintf(&b, "%s", e.Name)
		if e.Version != "" {
			fmt.Fprintf(&b, " v%s", e.Version)
		}
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

func (r *Repository) listLocked() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
