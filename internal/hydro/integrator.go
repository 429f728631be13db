package hydro

import (
	"fmt"
	"sync"

	"repro/internal/cca"
)

// IntegratorComponent is Figure 1's time-integration driver: it uses the
// "flow" port and provides the classic Ccaffeine GoPort (SIDL interface
// cca.GoPort) — the button a builder presses to run the simulation — plus
// a typed "integrator" port for programmatic control.
type IntegratorComponent struct {
	// Steps and DT configure what one Go() invocation runs.
	Steps int
	DT    float64

	svc cca.Services

	mu   sync.Mutex
	last Stats
}

// IntegratorPort is the typed control interface.
type IntegratorPort interface {
	// Run advances n steps of size dt and returns the final stats.
	Run(n int, dt float64) (Stats, error)
	// LastStats reports the most recent step's statistics.
	LastStats() Stats
}

// GoPort mirrors the generated CcaGoPort binding (int32 go()): zero return
// means success. It is declared here as well so hydro does not import the
// esi bindings package.
type GoPort interface {
	Go() int32
}

// Port type names for the integrator's registrations.
const (
	TypeGoPort     = "cca.GoPort"
	TypeIntegrator = "chad.Integrator"
)

var (
	_ cca.Component  = (*IntegratorComponent)(nil)
	_ IntegratorPort = (*IntegratorComponent)(nil)
	_ GoPort         = (*IntegratorComponent)(nil)
)

// NewIntegratorComponent creates a driver running steps×dt per Go().
func NewIntegratorComponent(steps int, dt float64) *IntegratorComponent {
	return &IntegratorComponent{Steps: steps, DT: dt}
}

// SetServices implements cca.Component.
func (ic *IntegratorComponent) SetServices(svc cca.Services) error {
	ic.svc = svc
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "flow", Type: TypeFlow}); err != nil {
		return err
	}
	if err := svc.AddProvidesPort(ic, cca.PortInfo{Name: "go", Type: TypeGoPort}); err != nil {
		return err
	}
	return svc.AddProvidesPort(ic, cca.PortInfo{Name: "integrator", Type: TypeIntegrator})
}

// Run implements IntegratorPort.
func (ic *IntegratorComponent) Run(n int, dt float64) (Stats, error) {
	if n <= 0 || dt <= 0 {
		return Stats{}, fmt.Errorf("%w: run n=%d dt=%v", ErrHydro, n, dt)
	}
	port, err := ic.svc.GetPort("flow")
	if err != nil {
		return Stats{}, fmt.Errorf("hydro: integrator needs a flow: %w", err)
	}
	defer ic.svc.ReleasePort("flow")
	flow, ok := port.(FlowPort)
	if !ok {
		return Stats{}, fmt.Errorf("%w: flow port is %T", ErrHydro, port)
	}
	var last Stats
	for i := 0; i < n; i++ {
		last, err = flow.Step(dt)
		if err != nil {
			return last, err
		}
	}
	ic.mu.Lock()
	ic.last = last
	ic.mu.Unlock()
	return last, nil
}

// LastStats implements IntegratorPort.
func (ic *IntegratorComponent) LastStats() Stats {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.last
}

// Go implements the cca.GoPort convention: run the configured segment,
// returning 0 on success and nonzero on failure.
func (ic *IntegratorComponent) Go() int32 {
	steps, dt := ic.Steps, ic.DT
	if steps <= 0 {
		steps = 1
	}
	if dt <= 0 {
		dt = 0.01
	}
	if _, err := ic.Run(steps, dt); err != nil {
		return 1
	}
	return 0
}
