package framework

// This file implements live component replacement: quiesce (drain a
// provides port to zero outstanding acquisitions behind a retryable gate),
// checkpoint transfer, and Swap — atomic re-wiring of every uses-provides
// connection from an old component instance to its replacement under the
// copy-on-write snapshot lock, so standing callers observe only a
// Degraded→Restored window and typed retryable errors, never a torn
// topology.

import (
	"fmt"
	"time"

	"repro/internal/cca"
	"repro/internal/ckpt"
	"repro/internal/obs"
)

// Swap/quiesce instruments.
var (
	cQuiesces = obs.NewCounter("cca.quiesces")
	cSwaps    = obs.NewCounter("cca.swaps")
)

// ErrSwap reports hot-swap failures (the old assembly is left intact).
var ErrSwap = fmt.Errorf("framework: swap failed")

// ErrDrainTimeout reports a quiesce drain that did not reach zero
// outstanding acquisitions in time; the port is resumed before return.
var ErrDrainTimeout = fmt.Errorf("framework: quiesce drain timed out")

// defaultDrainTimeout bounds a quiesce drain when the caller passes 0.
const defaultDrainTimeout = 5 * time.Second

// drainPoll is the drain's re-check interval. The outstanding balance is a
// lock-free atomic read, so polling tightly costs little and keeps the
// swap window short.
const drainPoll = 100 * time.Microsecond

// Quiesce gates a provides port for checkpoint or swap: the shared health
// cell flips to Degraded (emitting EventConnectionDegraded on every live
// connection, exactly as a transport supervisor would), new GetPort
// acquisitions shed with cca.ErrPortQuiescing, and the call blocks until
// every outstanding acquisition through a connection to the port has been
// released — at which point no caller holds the provider's interface and
// its state may be captured or the component replaced. On drain timeout
// (0 ⇒ 5s) the port is resumed and ErrDrainTimeout returned, so a wedged
// caller cannot leave the assembly gated forever.
//
// The drain is conservative for multi-connected uses ports: the
// outstanding balance lives on the uses entry (GetPorts fan-out shares
// one counter across its connections), so a uses port connected both to
// the quiescing provider and to others drains only when ALL its
// acquisitions release. Heavy unrelated traffic through such an entry can
// therefore hold the drain — and in the limit produce ErrDrainTimeout —
// even with zero callers on the target port. The trade is deliberate:
// conservatism errs toward "still in use", never toward a false drain.
func (f *Framework) Quiesce(component, port string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultDrainTimeout
	}
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
	pe.gate.Store(true)
	drain := f.drainEntriesLocked(component, port)
	f.mu.Unlock()

	cQuiesces.Inc()
	// Degraded is the honest state for the window: supervised monitors see
	// the same transition a reconnecting transport would produce.
	_ = f.SetPortHealth(component, port, cca.HealthDegraded, cca.ErrPortQuiescing)

	deadline := time.Now().Add(timeout)
	for {
		busy := false
		for _, ue := range drain {
			if ue.inUse.Load()&outMask != 0 {
				busy = true
				break
			}
		}
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			_ = f.Resume(component, port)
			return fmt.Errorf("%w: %s.%s after %v", ErrDrainTimeout, component, port, timeout)
		}
		time.Sleep(drainPoll)
	}
}

// revalidateSwapLocked repeats the step-1 compatibility check under the
// step-4 write lock, where the topology can no longer move: every
// connection about to be rewired must resolve to a provides (or uses)
// entry the replacement actually registered, and late-arriving
// connections — connected after the read-locked check — must still
// type-check. Caller holds f.mu for writing.
func (f *Framework) revalidateSwapLocked(name string, old *instance, newSvc *services) error {
	for _, other := range f.components {
		if other == old {
			continue
		}
		for _, ue := range other.svc.uses {
			for _, c := range ue.conns {
				if c.id.Provider != name {
					continue
				}
				npe, ok := newSvc.provides[c.id.ProvidesPort]
				if !ok {
					return fmt.Errorf("connection %v arrived during swap: replacement lacks provides port %q", c.id, c.id.ProvidesPort)
				}
				if err := f.opts.TypeCheck(ue.info.Type, npe.info.Type); err != nil {
					return fmt.Errorf("connection %v arrived during swap: %w", c.id, err)
				}
			}
		}
	}
	for uname, oldUE := range old.svc.uses {
		if len(oldUE.conns) == 0 {
			continue
		}
		if _, ok := newSvc.uses[uname]; !ok {
			return fmt.Errorf("uses port %s.%s connected during swap: replacement lacks it", name, uname)
		}
		for _, c := range oldUE.conns {
			if c.id.Provider != name {
				continue
			}
			if _, ok := newSvc.provides[c.id.ProvidesPort]; !ok {
				return fmt.Errorf("self-connection %v arrived during swap: replacement lacks provides port %q", c.id, c.id.ProvidesPort)
			}
		}
	}
	return nil
}

// drainEntriesLocked collects the uses entries holding a connection to the
// given provides port — the entries whose outstanding balances the drain
// must see reach zero. Caller holds f.mu.
func (f *Framework) drainEntriesLocked(component, port string) []*usesEntry {
	var out []*usesEntry
	for _, other := range f.components {
		for _, ue := range other.svc.uses {
			for _, c := range ue.conns {
				if c.id.Provider == component && c.id.ProvidesPort == port {
					out = append(out, ue)
					break
				}
			}
		}
	}
	return out
}

// Resume reopens a quiesced provides port: the gate lifts and the health
// cell returns to Healthy, emitting EventConnectionRestored.
func (f *Framework) Resume(component, port string) error {
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
	pe.gate.Store(false)
	f.mu.Unlock()
	return f.SetPortHealth(component, port, cca.HealthHealthy, nil)
}

// Quiesce implements cca.Quiescer on the component's own provides ports
// with the default drain timeout.
func (s *services) Quiesce(port string) error { return s.fw.Quiesce(s.name, port, 0) }

// Resume implements cca.Quiescer.
func (s *services) Resume(port string) error { return s.fw.Resume(s.name, port) }

var _ cca.Quiescer = (*services)(nil)

// Swap replaces the installed component instance name with repl while the
// assembly runs — the dynamic form of the paper's §2.2 "experiment with
// multiple solution strategies by reconnecting ports" scenario:
//
//  1. repl's ports are registered (SetServices) off to the side and
//     checked against every live connection of the old instance — same
//     port names, compatible SIDL types — before anything is disturbed;
//  2. every connected provides port of the old instance is quiesced:
//     Degraded events fire, new acquisitions shed with the typed
//     retryable cca.ErrPortQuiescing, outstanding calls drain;
//  3. when both old and new implement cca.Checkpointable, state moves
//     old→new in the checkpoint wire format, opaque to the framework;
//  4. under one write-lock critical section, every connection touching
//     the old instance is re-pointed at the replacement's entries — users
//     of the old component now hold the new ports, the new component
//     inherits the old one's uses connections — and the instance table is
//     updated; readers only ever observe the old or the new topology;
//  5. the gates lift and EventConnectionRestored + EventComponentSwapped
//     fire.
//
// On any failure before step 4 the old assembly is resumed untouched and
// the error returned wraps ErrSwap.
func (f *Framework) Swap(name string, repl cca.Component) error {
	f.mu.RLock()
	old, ok := f.components[name]
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %w: %q", ErrSwap, ErrComponentUnknown, name)
	}
	if req, ok := repl.(cca.FlavorRequirer); ok {
		if !f.opts.Flavor.Contains(req.RequiredFlavor()) {
			return fmt.Errorf("%w: %w: need %v, have %v", ErrSwap, ErrFlavor, req.RequiredFlavor(), f.opts.Flavor)
		}
	}

	// Step 1: let the replacement register its ports off to the side. Its
	// services handle shares the framework (and lock) but is not published
	// until step 4, so registration cannot race the running assembly.
	newSvc := &services{fw: f, name: name,
		provides: map[string]providesEntry{}, uses: map[string]*usesEntry{}}
	if err := repl.SetServices(newSvc); err != nil {
		return fmt.Errorf("%w: SetServices: %w", ErrSwap, err)
	}

	// Compatibility check against every live connection of the old
	// instance, and collect the provides ports that must quiesce.
	f.mu.RLock()
	var quiesce []string
	checkErr := func() error {
		seen := map[string]bool{}
		for _, other := range f.components {
			for _, ue := range other.svc.uses {
				for _, c := range ue.conns {
					switch {
					case c.id.Provider == name:
						npe, ok := newSvc.provides[c.id.ProvidesPort]
						if !ok {
							return fmt.Errorf("replacement lacks provides port %q needed by %v", c.id.ProvidesPort, c.id)
						}
						if err := f.opts.TypeCheck(ue.info.Type, npe.info.Type); err != nil {
							return fmt.Errorf("connection %v: %w", c.id, err)
						}
						if !seen[c.id.ProvidesPort] {
							seen[c.id.ProvidesPort] = true
							quiesce = append(quiesce, c.id.ProvidesPort)
						}
					case c.id.User == name:
						nue, ok := newSvc.uses[c.id.UsesPort]
						if !ok {
							return fmt.Errorf("replacement lacks uses port %q needed by %v", c.id.UsesPort, c.id)
						}
						// Re-check against the provider the connection
						// already has.
						if pInst, ok := f.components[c.id.Provider]; ok {
							if pe, ok := pInst.svc.provides[c.id.ProvidesPort]; ok {
								if err := f.opts.TypeCheck(nue.info.Type, pe.info.Type); err != nil {
									return fmt.Errorf("connection %v: %w", c.id, err)
								}
							}
						}
					}
				}
			}
		}
		return nil
	}()
	f.mu.RUnlock()
	if checkErr != nil {
		return fmt.Errorf("%w: %w", ErrSwap, checkErr)
	}

	// Step 2: quiesce every connected provides port of the old instance.
	for i, port := range quiesce {
		if err := f.Quiesce(name, port, 0); err != nil {
			for _, done := range quiesce[:i] {
				_ = f.Resume(name, done)
			}
			return fmt.Errorf("%w: %w", ErrSwap, err)
		}
	}
	resumeAll := func() {
		for _, port := range quiesce {
			_ = f.Resume(name, port)
		}
	}

	// Step 3: carry state. The framework treats the checkpoint as opaque
	// bytes; the wire format is the component's business (internal/ckpt).
	oldCk, oldOK := old.comp.(cca.Checkpointable)
	newCk, newOK := repl.(cca.Checkpointable)
	if oldOK && newOK {
		state, err := ckpt.Marshal(oldCk)
		if err != nil {
			resumeAll()
			return fmt.Errorf("%w: checkpoint: %w", ErrSwap, err)
		}
		if err := ckpt.Unmarshal(state, newCk); err != nil {
			resumeAll()
			return fmt.Errorf("%w: restore: %w", ErrSwap, err)
		}
	}

	// Step 4: the atomic rewire. One write-lock critical section replaces
	// every connection snapshot touching the old instance and publishes
	// the new instance; concurrent GetPort readers see either the old
	// gated topology or the new healthy one.
	f.mu.Lock()
	if cur, ok := f.components[name]; !ok || cur != old {
		f.mu.Unlock()
		resumeAll()
		return fmt.Errorf("%w: instance %q changed during swap", ErrSwap, name)
	}
	// Re-validate before mutating anything: the step-1 compatibility check
	// ran under an earlier read lock that was released, so a Connect() may
	// have landed since — possibly on a port the replacement lacks or one
	// that was never type-checked (and, being unconnected at quiesce time,
	// never gated). Rewiring such a connection would install a zero-value
	// providesEntry whose nil port a later GetPort hands to a caller.
	// Aborting here leaves the old assembly intact.
	if err := f.revalidateSwapLocked(name, old, newSvc); err != nil {
		f.mu.Unlock()
		resumeAll()
		return fmt.Errorf("%w: %w", ErrSwap, err)
	}
	var restored []cca.ConnectionID
	for _, other := range f.components {
		if other == old {
			continue
		}
		for _, ue := range other.svc.uses {
			touched := false
			for _, c := range ue.conns {
				if c.id.Provider == name {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			next := make([]connection, len(ue.conns))
			copy(next, ue.conns)
			for i, c := range next {
				if c.id.Provider != name {
					continue
				}
				npe := newSvc.provides[c.id.ProvidesPort] // existence checked in step 1
				port := npe.port
				if f.opts.Proxy != nil {
					port = f.opts.Proxy(port, npe.info)
				}
				next[i] = connection{id: c.id, port: port, health: npe.health, gate: npe.gate}
				restored = append(restored, c.id)
			}
			ue.conns = next
		}
	}
	// The replacement inherits the old instance's uses connections
	// wholesale; a self-connection (old used its own provides port) is
	// re-pointed at the replacement's entry like any other.
	for uname, oldUE := range old.svc.uses {
		if len(oldUE.conns) == 0 {
			continue
		}
		nue, ok := newSvc.uses[uname]
		if !ok { // unreachable: revalidateSwapLocked checked connected entries
			continue
		}
		next := append([]connection(nil), oldUE.conns...)
		for i, c := range next {
			if c.id.Provider != name {
				continue
			}
			npe := newSvc.provides[c.id.ProvidesPort]
			port := npe.port
			if f.opts.Proxy != nil {
				port = f.opts.Proxy(port, npe.info)
			}
			next[i] = connection{id: c.id, port: port, health: npe.health, gate: npe.gate}
			restored = append(restored, c.id)
		}
		nue.conns = next
	}
	// Retire the old entries' lifetime acquisition counts so the sampled
	// cca.getport_calls reading never goes backwards.
	for _, ue := range old.svc.uses {
		f.retiredAcq += uint64(ue.inUse.Load()) >> acqShift
	}
	f.components[name] = &instance{name: name, comp: repl, svc: newSvc}
	f.mu.Unlock()

	// Step 5: account the health transition out of the retired entries (a
	// quiesced port was Degraded; its replacement entry starts Healthy)
	// and announce the window's close.
	for _, port := range quiesce {
		if pe, ok := old.svc.provides[port]; ok {
			if g := healthGauge(cca.Health(pe.health.Load())); g != nil {
				g.Add(-1)
			}
		}
		cHealthEvts.Inc()
	}
	cSwaps.Inc()
	for _, id := range restored {
		f.emit(cca.Event{Kind: cca.EventConnectionRestored, Component: name, Connection: id})
	}
	f.emit(cca.Event{Kind: cca.EventComponentSwapped, Component: name})
	if rel, ok := old.comp.(cca.ComponentRelease); ok {
		if err := rel.ReleaseServices(); err != nil {
			f.emit(cca.Event{Kind: cca.EventComponentFailed, Component: name, Err: err})
		}
	}
	return nil
}
