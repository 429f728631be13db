// Package cca defines the core abstractions of the Common Component
// Architecture as specified in the HPDC'99 paper: components, provides/uses
// ports, the CCAServices handle through which all component↔framework
// interaction flows, and the connection events the configuration API
// (builders) observes.
//
// The paper's central design commitments, reproduced here:
//
//   - "Each component defines one or more ports... Communication links
//     between components are implemented by connecting compatible ports"
//     (§4). A Port in this implementation is any Go interface value; port
//     compatibility is Go interface satisfaction, checked at connect time
//     against the SIDL-declared type when one is registered.
//
//   - "A Provides port is an interface that a component provides to others.
//     A Uses port interface has methods that one component (the caller)
//     wants to call on another component (the callee); the caller component
//     retrieves the Uses interface from the CCA Services handle" (§6.1).
//
//   - "Provides ports are generalized listeners... Each Uses port maintains
//     a list of listeners... one call may correspond to zero or more
//     invocations on provider components" (§6.1). GetPort returns the
//     single connection (erroring on fan-out ambiguity); GetPorts returns
//     the full listener list for fan-out calls.
//
//   - "All interaction between the component and its containing framework
//     will occur through the component's CCAServices object, which is set
//     by the containing framework" (§6.1): Component.SetServices.
//
// The reference framework that implements Services lives in
// repro/internal/cca/framework; collective ports live in
// repro/internal/cca/collective.
package cca

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Port is a communication endpoint. Any value may serve as a port; in
// practice a port is a value implementing the Go interface generated from
// (or corresponding to) its SIDL port type. The paper's direct-connect
// guarantee holds because a connected Port is handed to the using component
// as the very interface value the provider registered — a call through it
// is a plain Go dynamic dispatch.
type Port any

// PortInfo names and types a port registration.
type PortInfo struct {
	// Name is the component-local instance name of the port ("solver",
	// "viz", ...). GetPort and Connect address ports by this name.
	Name string
	// Type is the port's SIDL type name (e.g. "esi.SolverPort"). Two
	// ports are compatible when their types are compatible per the SIDL
	// type graph (or equal, when no SIDL registration exists).
	Type string
	// Properties carries implementation hints: the paper's compliance
	// "flavors", collective data maps, transport preferences, etc.
	Properties map[string]string
}

// Component is the paper's independent unit of deployment. The containing
// framework calls SetServices exactly once, immediately after
// instantiation; the component registers its provides and uses ports there
// (Figure 3, step 1).
type Component interface {
	SetServices(svc Services) error
}

// ComponentRelease is optionally implemented by components that need
// teardown when removed from a framework.
type ComponentRelease interface {
	ReleaseServices() error
}

// Checkpointable is the optional port interface behind live hot-swap and
// crash restart: a component that implements it can externalize its state
// as an opaque byte stream and later reconstruct itself from one — in the
// same process (framework Swap), a different process, or after a
// kill-and-restart (orb RestartPolicy). Implementations conventionally
// write the repro/internal/ckpt wire format (versioned, length-prefixed,
// CRC-guarded named sections), which is what the corruption guarantees in
// that package's docs assume; the framework itself treats the stream as
// opaque bytes.
//
// Checkpoint must capture a consistent snapshot — callers quiesce the
// component's ports first, so no port call is in flight during either
// method. Restore must leave the component equivalent to the one that
// checkpointed: resuming a restored iterative solver converges to the same
// answer the uninterrupted run produces.
type Checkpointable interface {
	Checkpoint(w io.Writer) error
	Restore(r io.Reader) error
}

// Quiescer is the quiesce surface a Services handle exposes when its
// framework supports live component replacement (the reference framework
// does). Quiesce flips the named provides port's shared health cell to
// Degraded — so supervised callers observe the window through the ordinary
// event stream — then drains: it blocks until every outstanding GetPort
// acquisition of the port has been released. While quiesced, new GetPort
// calls shed with ErrPortQuiescing, a typed retryable error. Resume
// returns the port to Healthy and re-admits acquisitions.
type Quiescer interface {
	Quiesce(port string) error
	Resume(port string) error
}

// Errors reported by Services implementations and frameworks.
var (
	ErrPortExists       = errors.New("cca: port already registered")
	ErrPortUnknown      = errors.New("cca: no such port")
	ErrPortNotUses      = errors.New("cca: port is not a registered uses port")
	ErrNotConnected     = errors.New("cca: uses port is not connected")
	ErrMultiConnected   = errors.New("cca: uses port has multiple connections; use GetPorts")
	ErrTypeMismatch     = errors.New("cca: port types are incompatible")
	ErrNilPort          = errors.New("cca: nil port")
	ErrConnectionBroken = errors.New("cca: connection broken")
	// ErrPortQuiescing is the typed retryable error GetPort sheds while a
	// provides port is quiesced for checkpoint or swap: the provider is
	// healthy and will re-admit acquisitions when the window closes, so
	// callers should back off briefly and retry rather than fail. A
	// caller that retries at once, without yielding, can hold the window
	// open: on few cores the spinning callers keep the swapper and the
	// callers still holding the port from running.
	ErrPortQuiescing = errors.New("cca: port quiescing (retry shortly)")
)

// Health is the framework-tracked state of a connection to a (possibly
// remote) provides port. Direct in-process connections are always Healthy;
// distributed connections move through the state machine as their transport
// supervisor observes the peer: Healthy → Degraded on connection loss
// (reconnect in progress, calls may be retried), Degraded → Broken when the
// peer is judged truly down (circuit open — GetPort fails fast with
// ErrConnectionBroken instead of letting callers hang on a dead socket),
// and back to Healthy when a redial succeeds.
type Health int32

// Connection health states.
const (
	HealthHealthy Health = iota
	HealthDegraded
	HealthBroken
)

func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthBroken:
		return "broken"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// Services is the CCAServices handle (§4, §6.1): the minimal framework
// service set the paper identifies — "creation of CCA Ports and access to
// CCA Ports, which in turn enable connections between components."
type Services interface {
	// AddProvidesPort publishes a port this component implements
	// (Figure 3 step 2: addProvidesPort).
	AddProvidesPort(port Port, info PortInfo) error
	// RemoveProvidesPort withdraws a published port.
	RemoveProvidesPort(name string) error
	// RegisterUsesPort declares a port this component intends to call.
	RegisterUsesPort(info PortInfo) error
	// UnregisterUsesPort withdraws a uses declaration.
	UnregisterUsesPort(name string) error
	// GetPort retrieves the provider connected to the named uses port
	// (Figure 3 step 4: getPort). It errors when unconnected, and when
	// more than one provider is connected (fan-out callers use GetPorts).
	GetPort(name string) (Port, error)
	// GetPorts retrieves every provider connected to the named uses port,
	// in connection order — the paper's listener list. An unconnected
	// uses port yields an empty slice ("zero or more invocations"). Each
	// returned port is one acquisition and needs its own ReleasePort: a
	// caller that holds k ports calls ReleasePort(name) k times, or the
	// providers can never be quiesced or swapped.
	GetPorts(name string) ([]Port, error)
	// ReleasePort tells the framework the component is done with one
	// port instance obtained from GetPort or GetPorts.
	ReleasePort(name string) error
	// ProvidesPortNames lists this component's published ports, sorted.
	ProvidesPortNames() []string
	// UsesPortNames lists this component's declared uses ports, sorted.
	UsesPortNames() []string
	// PortInfo reports the registration info of a local port by name.
	PortInfo(name string) (PortInfo, bool)
	// ComponentName reports the instance name the framework assigned.
	ComponentName() string
}

// ConnectionID identifies a connection for the configuration API.
type ConnectionID struct {
	User         string // using component instance name
	UsesPort     string
	Provider     string // providing component instance name
	ProvidesPort string
}

func (c ConnectionID) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", c.User, c.UsesPort, c.Provider, c.ProvidesPort)
}

// EventKind enumerates configuration-API events (§4: "notifying components
// that they have been added to a scenario and deleted from it, redirecting
// interactions between components, or notifying a builder of a component
// failure").
type EventKind int

// Configuration event kinds.
const (
	EventComponentAdded EventKind = iota
	EventComponentRemoved
	EventConnected
	EventDisconnected
	EventComponentFailed
	// Connection-health transitions (§6.2 framework interposition): emitted
	// by the framework when a supervised distributed connection changes
	// health state. Degraded means the transport is down and a reconnect is
	// in progress; Broken means the circuit breaker judged the peer dead
	// (GetPort fails fast); Restored means a redial succeeded from either
	// non-healthy state.
	EventConnectionDegraded
	EventConnectionRestored
	EventConnectionBroken
	// EventComponentSwapped reports a live hot-swap: the named instance was
	// replaced by a new component (possibly carrying checkpointed state)
	// with its connections re-wired in place.
	EventComponentSwapped
)

func (k EventKind) String() string {
	switch k {
	case EventComponentAdded:
		return "component-added"
	case EventComponentRemoved:
		return "component-removed"
	case EventConnected:
		return "connected"
	case EventDisconnected:
		return "disconnected"
	case EventComponentFailed:
		return "component-failed"
	case EventConnectionDegraded:
		return "connection-degraded"
	case EventConnectionRestored:
		return "connection-restored"
	case EventConnectionBroken:
		return "connection-broken"
	case EventComponentSwapped:
		return "component-swapped"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a configuration-API notification.
type Event struct {
	Kind       EventKind
	Component  string
	Connection ConnectionID
	Err        error
}

// EventListener receives configuration events. Builders (cmd/ccafe) and
// monitoring components register listeners with the framework.
type EventListener interface {
	OnEvent(e Event)
}

// EventListenerFunc adapts a function to EventListener.
type EventListenerFunc func(e Event)

// OnEvent implements EventListener.
func (f EventListenerFunc) OnEvent(e Event) { f(e) }

// SortedNames returns map keys sorted — shared helper for deterministic
// listings across Services implementations.
func SortedNames[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
