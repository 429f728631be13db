package repo

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cca"
	"repro/internal/cca/framework"
)

// Builder is the composition tool of the paper's Figure 2 and the
// reproduction's one application container: a repository, a framework
// whose port type checking follows the repository's SIDL subtype relation,
// and the configuration API's event stream ("the CCA Configuration API
// supports interaction between components and various builders"). CCL
// documents, ccafe's verbs and the Go-programmed examples all assemble
// through it; pre-constructed components install and connect through Fw
// directly.
type Builder struct {
	Repo *Repository
	Fw   *framework.Framework

	mu     sync.Mutex
	events []cca.Event
	types  map[string]string // instance name -> repository type name
}

// ErrBuilder wraps builder-level failures.
var ErrBuilder = errors.New("repo: builder error")

// NewBuilder builds a framework over r — opts.TypeCheck is replaced by
// r.TypeChecker() — and subscribes to its configuration events.
func NewBuilder(r *Repository, opts framework.Options) *Builder {
	opts.TypeCheck = r.TypeChecker()
	b := &Builder{Repo: r, Fw: framework.New(opts), types: map[string]string{}}
	b.Fw.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		b.mu.Lock()
		b.events = append(b.events, e)
		b.mu.Unlock()
	}))
	return b
}

// Create instantiates the repository component typeName into the framework
// under instanceName.
func (b *Builder) Create(instanceName, typeName string) error {
	comp, err := b.Repo.Instantiate(typeName)
	if err != nil {
		return err
	}
	if err := b.Fw.Install(instanceName, comp); err != nil {
		return err
	}
	b.mu.Lock()
	b.types[instanceName] = typeName
	b.mu.Unlock()
	return nil
}

// Component returns an installed component instance.
func (b *Builder) Component(name string) (cca.Component, bool) {
	return b.Fw.Component(name)
}

// Port fetches a connected uses port on behalf of a component instance —
// builder-side access for driver programs.
func (b *Builder) Port(instance, usesPort string) (cca.Port, error) {
	svc, ok := b.Fw.Services(instance)
	if !ok {
		return nil, fmt.Errorf("%w: %q", framework.ErrComponentUnknown, instance)
	}
	return svc.GetPort(usesPort)
}

// AutoConnect finds the single compatible (usesPort, providesPort) pairing
// between two instances using their repository port specs and the SIDL
// subtype relation, and connects it. It fails when zero or multiple
// pairings are possible — ambiguity needs an explicit Connect.
func (b *Builder) AutoConnect(user, provider string) (cca.ConnectionID, error) {
	b.mu.Lock()
	userType, uok := b.types[user]
	provType, pok := b.types[provider]
	b.mu.Unlock()
	if !uok || !pok {
		return cca.ConnectionID{}, fmt.Errorf("%w: auto-connect needs builder-created instances", ErrBuilder)
	}
	ue, err := b.Repo.Retrieve(userType)
	if err != nil {
		return cca.ConnectionID{}, err
	}
	pe, err := b.Repo.Retrieve(provType)
	if err != nil {
		return cca.ConnectionID{}, err
	}
	tbl := b.Repo.Table()
	type pair struct{ uses, provides string }
	var pairs []pair
	for _, u := range ue.Uses {
		for _, p := range pe.Provides {
			if tbl.IsSubtype(p.Type, u.Type) {
				pairs = append(pairs, pair{u.Name, p.Name})
			}
		}
	}
	switch len(pairs) {
	case 0:
		return cca.ConnectionID{}, fmt.Errorf("%w: no compatible ports between %s and %s", ErrBuilder, user, provider)
	case 1:
		return b.Fw.Connect(user, pairs[0].uses, provider, pairs[0].provides)
	default:
		return cca.ConnectionID{}, fmt.Errorf("%w: %d compatible pairings between %s and %s; connect explicitly", ErrBuilder, len(pairs), user, provider)
	}
}

// Events returns a snapshot of the configuration events observed so far.
func (b *Builder) Events() []cca.Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]cca.Event(nil), b.events...)
}
