// Package framework is the reproduction's reference CCA framework — the
// "specific framework implementation" of the paper's Figure 2 and the
// component container that performs port connection: "Significantly, in the
// CCA model, port connection is the responsibility of the framework;
// therefore, a particular component may find itself connected in a variety
// of different ways depending on its environment and mode of use" (§6.1).
//
// The framework implements:
//
//   - component installation and removal with lifecycle callbacks
//     (Component.SetServices, ComponentRelease.ReleaseServices);
//   - direct connection (§6.2): Connect hands the provider's registered
//     interface value to the user's uses port, so a port call costs exactly
//     one Go dynamic dispatch — "nothing more than a direct function call
//     to the connected object";
//   - optional proxy interposition (§6.2: "the provided DirectConnectPort
//     can be translated through a proxy ... without the components on
//     either end of the connection needing to know");
//   - the configuration API's event stream for builders (§4);
//   - compliance-flavor checking (§4).
package framework

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cca"
	"repro/internal/obs"
)

// Framework instruments. GetPort is the claim-C1 hot path, so it carries
// no per-call instrumentation at all: its acquisition count rides in the
// high half of the inUse word it already maintains (see usesEntry) and is
// sampled at obs snapshot time as cca.getport_calls, so the instrumented
// path is byte-for-byte the bare path (experiment E10). The
// health gauges are fed from the same transitions that drive the PR 3
// connection-event stream (SetPortHealth).
var (
	cGetPorts    = obs.NewCounter("cca.getports_calls")
	cConnects    = obs.NewCounter("cca.connects")
	cDisconnects = obs.NewCounter("cca.disconnects")
	cHealthEvts  = obs.NewCounter("cca.health_transitions")
	gDegraded    = obs.NewGauge("cca.ports_degraded")
	gBroken      = obs.NewGauge("cca.ports_broken")
)

// healthGauge maps a non-healthy state to its gauge (nil for Healthy).
func healthGauge(h cca.Health) *obs.Gauge {
	switch h {
	case cca.HealthDegraded:
		return gDegraded
	case cca.HealthBroken:
		return gBroken
	default:
		return nil
	}
}

// ErrComponent reports component-level installation errors.
var (
	ErrComponentExists  = errors.New("framework: component already installed")
	ErrComponentUnknown = errors.New("framework: no such component")
	ErrFlavor           = errors.New("framework: framework lacks a flavor the component requires")
)

// TypeChecker decides whether a uses-port type may connect to a provides-
// port type. The SIDL runtime installs a subtype-aware checker; the default
// accepts equal type names and treats an empty name as a wildcard.
type TypeChecker func(usesType, providesType string) error

// ProxyFactory optionally wraps a provides port at connect time (§6.2 proxy
// interposition). Returning the port unchanged keeps the direct connection.
type ProxyFactory func(port cca.Port, info cca.PortInfo) cca.Port

// Options configures a Framework.
type Options struct {
	// Flavor is the compliance set this framework advertises. Zero means
	// FlavorInProcess.
	Flavor cca.Flavor
	// TypeCheck overrides the default name-equality port type check.
	TypeCheck TypeChecker
	// Proxy, when non-nil, is applied to every provides port at connect
	// time (the §6.2 interposition ablation).
	Proxy ProxyFactory
}

// Framework is the reference CCA-compliant container.
//
// Locking: mu is a readers-writer lock over the component/port registries.
// Structural mutations (Install/Remove/Connect/Disconnect and port
// registration) take the write lock and replace connection lists with fresh
// immutable snapshots; the hot paths a running pipeline hits on every
// timestep — GetPort, GetPorts, PortInfo, name listings — take only the
// read lock, so concurrent components never serialize on each other and
// claim C1 (§6.2: a port call costs no more than a direct call) survives
// under intra-process parallelism.
type Framework struct {
	mu         sync.RWMutex
	opts       Options
	components map[string]*instance
	listeners  []cca.EventListener
	// retiredAcq preserves the lifetime acquisition counts of uses
	// entries that have been removed, so cca.getport_calls never goes
	// backwards. Guarded by mu.
	retiredAcq uint64
}

type instance struct {
	name string
	comp cca.Component
	svc  *services
}

// New creates an empty framework.
func New(opts Options) *Framework {
	if opts.Flavor == 0 {
		opts.Flavor = cca.FlavorInProcess
	}
	if opts.TypeCheck == nil {
		opts.TypeCheck = defaultTypeCheck
	}
	f := &Framework{opts: opts, components: map[string]*instance{}}
	// Sampled, not counted per call: every live framework contributes its
	// acquisition total when an obs snapshot is taken.
	obs.AddCounterFunc("cca.getport_calls", f.getPortCalls)
	return f
}

// getPortCalls sums lifetime port acquisitions across every uses entry
// plus those of entries already removed — the cca.getport_calls reading.
func (f *Framework) getPortCalls() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := f.retiredAcq
	for _, inst := range f.components {
		for _, ue := range inst.svc.uses {
			total += uint64(ue.inUse.Load()) >> acqShift
		}
	}
	return total
}

func defaultTypeCheck(usesType, providesType string) error {
	if usesType == "" || providesType == "" || usesType == providesType {
		return nil
	}
	return fmt.Errorf("%w: uses %q vs provides %q", cca.ErrTypeMismatch, usesType, providesType)
}

// AddEventListener registers a configuration-API listener.
func (f *Framework) AddEventListener(l cca.EventListener) {
	f.mu.Lock()
	f.listeners = append(f.listeners, l)
	f.mu.Unlock()
}

// emit must be called WITHOUT f.mu held; it snapshots listeners itself.
func (f *Framework) emit(e cca.Event) {
	f.mu.RLock()
	ls := append([]cca.EventListener(nil), f.listeners...)
	f.mu.RUnlock()
	for _, l := range ls {
		l.OnEvent(e)
	}
}

// Install instantiates comp under the given instance name: it builds the
// component's CCAServices, checks flavor requirements, and invokes
// SetServices (the paper's component lifecycle entry point).
func (f *Framework) Install(name string, comp cca.Component) error {
	if req, ok := comp.(cca.FlavorRequirer); ok {
		if !f.opts.Flavor.Contains(req.RequiredFlavor()) {
			return fmt.Errorf("%w: need %v, have %v", ErrFlavor, req.RequiredFlavor(), f.opts.Flavor)
		}
	}
	svc := &services{fw: f, name: name,
		provides: map[string]providesEntry{}, uses: map[string]*usesEntry{}}
	f.mu.Lock()
	if _, dup := f.components[name]; dup {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrComponentExists, name)
	}
	f.components[name] = &instance{name: name, comp: comp, svc: svc}
	f.mu.Unlock()

	if err := comp.SetServices(svc); err != nil {
		f.mu.Lock()
		delete(f.components, name)
		f.mu.Unlock()
		f.emit(cca.Event{Kind: cca.EventComponentFailed, Component: name, Err: err})
		return fmt.Errorf("framework: SetServices(%q): %w", name, err)
	}
	f.emit(cca.Event{Kind: cca.EventComponentAdded, Component: name})
	return nil
}

// Remove disconnects and removes a component instance.
func (f *Framework) Remove(name string) error {
	f.mu.Lock()
	inst, ok := f.components[name]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrComponentUnknown, name)
	}
	// Collect connections touching this component.
	var drop []cca.ConnectionID
	for _, other := range f.components {
		for _, ue := range other.svc.uses {
			for _, c := range ue.conns {
				if c.id.Provider == name || c.id.User == name {
					drop = append(drop, c.id)
				}
			}
		}
	}
	f.mu.Unlock()
	for _, id := range drop {
		if err := f.Disconnect(id); err != nil && !errors.Is(err, cca.ErrNotConnected) {
			return err
		}
	}
	f.mu.Lock()
	for _, ue := range inst.svc.uses {
		f.retiredAcq += uint64(ue.inUse.Load()) >> acqShift
	}
	delete(f.components, name)
	f.mu.Unlock()
	if rel, ok := inst.comp.(cca.ComponentRelease); ok {
		if err := rel.ReleaseServices(); err != nil {
			f.emit(cca.Event{Kind: cca.EventComponentFailed, Component: name, Err: err})
		}
	}
	f.emit(cca.Event{Kind: cca.EventComponentRemoved, Component: name})
	return nil
}

// Component returns the installed component instance by name.
func (f *Framework) Component(name string) (cca.Component, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	inst, ok := f.components[name]
	if !ok {
		return nil, false
	}
	return inst.comp, true
}

// ComponentNames lists installed instances, sorted.
func (f *Framework) ComponentNames() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return cca.SortedNames(f.components)
}

// Services returns a component's services handle — used by builders and
// tests to inspect port registrations.
func (f *Framework) Services(name string) (cca.Services, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	inst, ok := f.components[name]
	if !ok {
		return nil, false
	}
	return inst.svc, true
}

// Connect links user's uses port to provider's provides port (Figure 3
// steps 2–3): the framework fetches the provider's registered interface
// value — optionally interposing a proxy — and appends it to the uses
// port's listener list.
func (f *Framework) Connect(user, usesPort, provider, providesPort string) (cca.ConnectionID, error) {
	id := cca.ConnectionID{User: user, UsesPort: usesPort, Provider: provider, ProvidesPort: providesPort}

	f.mu.Lock()
	uInst, ok := f.components[user]
	if !ok {
		f.mu.Unlock()
		return id, fmt.Errorf("%w: %q", ErrComponentUnknown, user)
	}
	pInst, ok := f.components[provider]
	if !ok {
		f.mu.Unlock()
		return id, fmt.Errorf("%w: %q", ErrComponentUnknown, provider)
	}
	pe, ok := pInst.svc.provides[providesPort]
	if !ok {
		f.mu.Unlock()
		return id, fmt.Errorf("%w: %s.%s", cca.ErrPortUnknown, provider, providesPort)
	}
	ue, ok := uInst.svc.uses[usesPort]
	if !ok {
		f.mu.Unlock()
		return id, fmt.Errorf("%w: %s.%s", cca.ErrPortUnknown, user, usesPort)
	}
	if err := f.opts.TypeCheck(ue.info.Type, pe.info.Type); err != nil {
		f.mu.Unlock()
		return id, err
	}
	port := pe.port
	if f.opts.Proxy != nil {
		port = f.opts.Proxy(port, pe.info)
	}
	// Swap in a fresh snapshot rather than appending in place: readers that
	// captured the old slice under the read lock keep a consistent view.
	next := make([]connection, len(ue.conns)+1)
	copy(next, ue.conns)
	next[len(ue.conns)] = connection{id: id, port: port, health: pe.health, gate: pe.gate}
	ue.conns = next
	f.mu.Unlock()

	cConnects.Inc()
	f.emit(cca.Event{Kind: cca.EventConnected, Connection: id})
	return id, nil
}

// Disconnect severs a connection previously made by Connect.
func (f *Framework) Disconnect(id cca.ConnectionID) error {
	f.mu.Lock()
	uInst, ok := f.components[id.User]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrComponentUnknown, id.User)
	}
	ue, ok := uInst.svc.uses[id.UsesPort]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", cca.ErrPortUnknown, id.User, id.UsesPort)
	}
	found := false
	for i, c := range ue.conns {
		if c.id == id {
			// Snapshot swap (copy-on-write): never edit the published slice.
			next := make([]connection, 0, len(ue.conns)-1)
			next = append(next, ue.conns[:i]...)
			next = append(next, ue.conns[i+1:]...)
			ue.conns = next
			found = true
			break
		}
	}
	f.mu.Unlock()
	if !found {
		return fmt.Errorf("%w: %v", cca.ErrNotConnected, id)
	}
	cDisconnects.Inc()
	f.emit(cca.Event{Kind: cca.EventDisconnected, Connection: id})
	return nil
}

// Connections lists every live connection, in no particular order.
func (f *Framework) Connections() []cca.ConnectionID {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []cca.ConnectionID
	for _, inst := range f.components {
		for _, ue := range inst.svc.uses {
			for _, c := range ue.conns {
				out = append(out, c.id)
			}
		}
	}
	return out
}

// SetPortHealth records the health of a provides port and notifies
// listeners of the transition on every live connection to it. It is the
// bridge between a transport supervisor (orb.Supervised via dist) and the
// configuration API: Degraded emits EventConnectionDegraded, Broken emits
// EventConnectionBroken, and a return to Healthy emits
// EventConnectionRestored. Setting the current state again is a no-op.
// While a port is Broken, GetPort on any connection to it fails with
// cca.ErrConnectionBroken.
func (f *Framework) SetPortHealth(component, port string, h cca.Health, cause error) error {
	f.mu.Lock()
	inst, ok := f.components[component]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrComponentUnknown, component)
	}
	pe, ok := inst.svc.provides[port]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: provides %s.%s", cca.ErrPortUnknown, component, port)
	}
	prev := cca.Health(pe.health.Swap(int32(h)))
	var affected []cca.ConnectionID
	if prev != h {
		for _, other := range f.components {
			for _, ue := range other.svc.uses {
				for _, c := range ue.conns {
					if c.id.Provider == component && c.id.ProvidesPort == port {
						affected = append(affected, c.id)
					}
				}
			}
		}
	}
	f.mu.Unlock()
	if prev == h {
		return nil
	}
	cHealthEvts.Inc()
	// The port's contribution moves between the non-healthy gauges; a
	// Healthy port contributes to neither.
	if g := healthGauge(prev); g != nil {
		g.Add(-1)
	}
	if g := healthGauge(h); g != nil {
		g.Add(1)
	}
	kind := cca.EventConnectionRestored
	switch h {
	case cca.HealthDegraded:
		kind = cca.EventConnectionDegraded
	case cca.HealthBroken:
		kind = cca.EventConnectionBroken
	}
	if len(affected) == 0 {
		// No connections yet: the state still sticks on the provides entry
		// (later connects inherit it); surface the transition at component
		// granularity so monitors see supervisor activity either way.
		f.emit(cca.Event{Kind: kind, Component: component, Err: cause})
		return nil
	}
	for _, id := range affected {
		f.emit(cca.Event{Kind: kind, Component: component, Connection: id, Err: cause})
	}
	return nil
}

// PortHealth reports the recorded health of a provides port (Healthy for
// ports no supervisor has ever reported on).
func (f *Framework) PortHealth(component, port string) (cca.Health, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	inst, ok := f.components[component]
	if !ok {
		return cca.HealthHealthy, fmt.Errorf("%w: %q", ErrComponentUnknown, component)
	}
	pe, ok := inst.svc.provides[port]
	if !ok {
		return cca.HealthHealthy, fmt.Errorf("%w: provides %s.%s", cca.ErrPortUnknown, component, port)
	}
	return cca.Health(pe.health.Load()), nil
}

// --- services implementation ---

type providesEntry struct {
	port cca.Port
	info cca.PortInfo
	// health is the shared health cell for every connection to this
	// provides port. Connections copy the pointer at connect time, so a
	// health transition reported once (SetPortHealth) is visible to every
	// GetPort through any connection snapshot without republishing slices.
	health *atomic.Int32
	// gate is the shared quiesce gate: while set, GetPort acquisitions of
	// any connection to this port shed with cca.ErrPortQuiescing (typed
	// retryable) so the provider can drain to zero outstanding calls for a
	// checkpoint or swap. Shared by pointer exactly like health.
	gate *atomic.Bool
}

type connection struct {
	id     cca.ConnectionID
	port   cca.Port
	health *atomic.Int32 // shared with the provides entry; nil ⇒ always healthy
	gate   *atomic.Bool  // shared quiesce gate; nil ⇒ never quiesced
}

// inUse packing: the low 32 bits of usesEntry.inUse hold the
// currently-outstanding port count (the in-use balance GetPort/ReleasePort
// maintain), the high 32 bits the lifetime acquisition count. One atomic
// RMW updates both, so observability adds zero instructions to the
// claim-C1 hot path; obs snapshots read the high half lazily.
const (
	acqShift = 32
	acqOne   = int64(1) << acqShift
	outMask  = acqOne - 1
)

type usesEntry struct {
	info cca.PortInfo
	// conns is an immutable snapshot: writers (Connect/Disconnect, under
	// the framework write lock) replace the whole slice and never mutate
	// it in place, so a reader may use a captured snapshot after dropping
	// the read lock.
	conns []connection
	// inUse is atomic because GetPort/ReleasePort adjust it while holding
	// only the read lock. See the packing constants above: low half is
	// the outstanding balance, high half the lifetime acquisition count.
	inUse atomic.Int64
}

// services implements cca.Services for one component instance. Mutating
// operations take the framework write lock; GetPort/GetPorts take only the
// read lock, and the returned port is called without any framework
// involvement (the §6.2 zero-overhead path).
type services struct {
	fw       *Framework
	name     string
	provides map[string]providesEntry
	uses     map[string]*usesEntry
}

var _ cca.Services = (*services)(nil)

// ComponentName implements cca.Services.
func (s *services) ComponentName() string { return s.name }

// AddProvidesPort implements cca.Services.
func (s *services) AddProvidesPort(port cca.Port, info cca.PortInfo) error {
	if port == nil {
		return cca.ErrNilPort
	}
	if info.Name == "" {
		return fmt.Errorf("%w: empty port name", cca.ErrPortUnknown)
	}
	s.fw.mu.Lock()
	defer s.fw.mu.Unlock()
	if _, dup := s.provides[info.Name]; dup {
		return fmt.Errorf("%w: provides %s.%s", cca.ErrPortExists, s.name, info.Name)
	}
	if _, dup := s.uses[info.Name]; dup {
		return fmt.Errorf("%w: %s.%s registered as uses", cca.ErrPortExists, s.name, info.Name)
	}
	s.provides[info.Name] = providesEntry{port: port, info: info,
		health: new(atomic.Int32), gate: new(atomic.Bool)}
	return nil
}

// RemoveProvidesPort implements cca.Services.
func (s *services) RemoveProvidesPort(name string) error {
	s.fw.mu.Lock()
	defer s.fw.mu.Unlock()
	if _, ok := s.provides[name]; !ok {
		return fmt.Errorf("%w: provides %s.%s", cca.ErrPortUnknown, s.name, name)
	}
	delete(s.provides, name)
	return nil
}

// RegisterUsesPort implements cca.Services.
func (s *services) RegisterUsesPort(info cca.PortInfo) error {
	if info.Name == "" {
		return fmt.Errorf("%w: empty port name", cca.ErrPortUnknown)
	}
	s.fw.mu.Lock()
	defer s.fw.mu.Unlock()
	if _, dup := s.uses[info.Name]; dup {
		return fmt.Errorf("%w: uses %s.%s", cca.ErrPortExists, s.name, info.Name)
	}
	if _, dup := s.provides[info.Name]; dup {
		return fmt.Errorf("%w: %s.%s registered as provides", cca.ErrPortExists, s.name, info.Name)
	}
	s.uses[info.Name] = &usesEntry{info: info}
	return nil
}

// UnregisterUsesPort implements cca.Services.
func (s *services) UnregisterUsesPort(name string) error {
	s.fw.mu.Lock()
	defer s.fw.mu.Unlock()
	ue, ok := s.uses[name]
	if !ok {
		return fmt.Errorf("%w: uses %s.%s", cca.ErrPortUnknown, s.name, name)
	}
	if len(ue.conns) > 0 {
		return fmt.Errorf("cca: uses %s.%s still has %d connections", s.name, name, len(ue.conns))
	}
	s.fw.retiredAcq += uint64(ue.inUse.Load()) >> acqShift
	delete(s.uses, name)
	return nil
}

// GetPort implements cca.Services. It is the framework's hottest read path
// (Figure 3 step 4, executed by every component on every use), so it takes
// only the read lock: the connection list is an immutable snapshot and the
// use count is atomic, so concurrent callers never serialize.
func (s *services) GetPort(name string) (cca.Port, error) {
	s.fw.mu.RLock()
	ue, ok := s.uses[name]
	var conns []connection
	if ok {
		conns = ue.conns
	}
	s.fw.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: uses %s.%s", cca.ErrPortNotUses, s.name, name)
	}
	switch len(conns) {
	case 0:
		return nil, fmt.Errorf("%w: %s.%s", cca.ErrNotConnected, s.name, name)
	case 1:
		// A Broken connection fails fast with a typed error rather than
		// handing out a port whose every call would hang on a dead peer —
		// the framework-interposed half of the supervision contract.
		if h := conns[0].health; h != nil && cca.Health(h.Load()) == cca.HealthBroken {
			return nil, fmt.Errorf("%w: %v", cca.ErrConnectionBroken, conns[0].id)
		}
		// Quiesce interplay, in two checks. The first is a pure fast-path
		// shed: a caller arriving while the gate is already up sheds with
		// the typed retryable error without touching the counter, so
		// hot-loop retries cannot flicker the balance and starve the
		// drain's zero sample. It is NOT sufficient alone — a caller could
		// load gate==false, be preempted while the drain scans a (still)
		// zero balance and declares the port drained, then resume and walk
		// off with a port whose component is mid-checkpoint/swap.
		if g := conns[0].gate; g != nil && g.Load() {
			return nil, fmt.Errorf("%w: %v", cca.ErrPortQuiescing, conns[0].id)
		}
		// So: publish the outstanding acquisition FIRST, then re-check.
		// With the increment ahead of the gate load (both sequentially
		// consistent), either the drain sees our balance and waits, or we
		// see the gate and roll back — no false-zero window either way.
		ue.inUse.Add(acqOne | 1) // one acquisition, one outstanding
		if g := conns[0].gate; g != nil && g.Load() {
			// Lost the race with Quiesce: roll back the outstanding half
			// (the monotonic acquisition count keeps the shed attempt).
			ue.releaseOutstanding(1)
			return nil, fmt.Errorf("%w: %v", cca.ErrPortQuiescing, conns[0].id)
		}
		return conns[0].port, nil
	default:
		return nil, fmt.Errorf("%w: %s.%s has %d", cca.ErrMultiConnected, s.name, name, len(conns))
	}
}

// GetPorts implements cca.Services. Read lock only; see GetPort.
func (s *services) GetPorts(name string) ([]cca.Port, error) {
	s.fw.mu.RLock()
	ue, ok := s.uses[name]
	var conns []connection
	if ok {
		conns = ue.conns
	}
	s.fw.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: uses %s.%s", cca.ErrPortNotUses, s.name, name)
	}
	// Two-phase gate handling, exactly as in GetPort: a counter-free
	// fast-path shed for gates already up, then acquire-before-re-check so
	// a concurrent drain either waits on our published balance or we
	// observe its gate and roll back — never a false zero.
	out := make([]cca.Port, len(conns))
	for i, c := range conns {
		if g := c.gate; g != nil && g.Load() {
			return nil, fmt.Errorf("%w: %v", cca.ErrPortQuiescing, c.id)
		}
		out[i] = c.port
	}
	n := int64(len(conns))
	ue.inUse.Add(n<<acqShift | n)
	for _, c := range conns {
		if g := c.gate; g != nil && g.Load() {
			ue.releaseOutstanding(n)
			return nil, fmt.Errorf("%w: %v", cca.ErrPortQuiescing, c.id)
		}
	}
	cGetPorts.Inc()
	return out, nil
}

// ReleasePort implements cca.Services.
func (s *services) ReleasePort(name string) error {
	s.fw.mu.RLock()
	ue, ok := s.uses[name]
	s.fw.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: uses %s.%s", cca.ErrPortNotUses, s.name, name)
	}
	ue.releaseOutstanding(1)
	return nil
}

// releaseOutstanding is a clamped decrement of n from the outstanding
// (low) half of inUse: never drop below zero even under unbalanced
// concurrent releases. The acquisition (high) half is monotonic and
// untouched here.
func (ue *usesEntry) releaseOutstanding(n int64) {
	for n > 0 {
		v := ue.inUse.Load()
		out := v & outMask
		if out == 0 {
			return
		}
		d := n
		if d > out {
			d = out
		}
		if ue.inUse.CompareAndSwap(v, v-d) {
			n -= d
		}
	}
}

// ProvidesPortNames implements cca.Services.
func (s *services) ProvidesPortNames() []string {
	s.fw.mu.RLock()
	defer s.fw.mu.RUnlock()
	return cca.SortedNames(s.provides)
}

// UsesPortNames implements cca.Services.
func (s *services) UsesPortNames() []string {
	s.fw.mu.RLock()
	defer s.fw.mu.RUnlock()
	return cca.SortedNames(s.uses)
}

// PortInfo implements cca.Services.
func (s *services) PortInfo(name string) (cca.PortInfo, bool) {
	s.fw.mu.RLock()
	defer s.fw.mu.RUnlock()
	if pe, ok := s.provides[name]; ok {
		return pe.info, true
	}
	if ue, ok := s.uses[name]; ok {
		return ue.info, true
	}
	return cca.PortInfo{}, false
}
