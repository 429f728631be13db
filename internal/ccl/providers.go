package ccl

import (
	"errors"
	"fmt"

	"repro/internal/cca"
	ccoll "repro/internal/cca/collective"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/repo"
)

// A Provider builds a component from a config block. Providers exist for
// implementations whose constructors need arguments a deposited factory
// cannot supply — an operator component wraps a particular matrix, and
// factories never serialize — so a ccl document can still declare them
// declaratively (`provider advdiff` instead of Go code).
type Provider func(cfg Config) (cca.Component, error)

// BuiltinProviders returns the standard provider table:
//
//	poisson    2-D Poisson operator; config: n (grid side, required)
//	advdiff    2-D advection-diffusion operator; config: n (required),
//	           vx (default 8), vy (default 4)
//	laplace1d  1-D Laplacian operator; config: n (required)
//	consumer   a generic consuming component holding one uses port;
//	           config: port (default "in"), type (default the collective
//	           pull type)
//
// A document's `provider` key names one of these.
func BuiltinProviders() map[string]Provider {
	return map[string]Provider{
		"poisson": func(cfg Config) (cca.Component, error) {
			n, err := requireN(cfg)
			if err != nil {
				return nil, err
			}
			return esi.NewOperatorComponent(linalg.Poisson2D(n, n)), nil
		},
		"advdiff": func(cfg Config) (cca.Component, error) {
			n, err := requireN(cfg)
			if err != nil {
				return nil, err
			}
			vx, err := cfg.Float("vx", 8)
			if err != nil {
				return nil, err
			}
			vy, err := cfg.Float("vy", 4)
			if err != nil {
				return nil, err
			}
			return esi.NewOperatorComponent(linalg.AdvDiff2D(n, n, vx, vy)), nil
		},
		"laplace1d": func(cfg Config) (cca.Component, error) {
			n, err := requireN(cfg)
			if err != nil {
				return nil, err
			}
			return esi.NewOperatorComponent(linalg.Laplace1D(n)), nil
		},
		"consumer": func(cfg Config) (cca.Component, error) {
			port, _ := cfg.Get("port")
			if port == "" {
				port = "in"
			}
			typ, _ := cfg.Get("type")
			if typ == "" {
				typ = ccoll.PullPortType
			}
			for _, kv := range cfg {
				if kv.Key != "port" && kv.Key != "type" {
					return nil, fmt.Errorf("%w: %q (consumer config: port, type)", ErrUnknownKey, kv.Key)
				}
			}
			return NewConsumer(port, typ), nil
		},
	}
}

func requireN(cfg Config) (int, error) {
	n, err := cfg.Int("n", 0)
	if err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("%w: config needs `n` >= 1", ErrMissingKey)
	}
	return n, nil
}

// Consumer is a generic consuming component: it registers a single uses
// port and gives drivers framework-sanctioned access to whatever provider
// it is connected to. The repository entry ConsumerType deposits it so
// assemblies can declare consumers by type through a repository (the
// distviz pipeline's viz tool is one).
type Consumer struct {
	PortName string
	PortType string
	svc      cca.Services
}

// NewConsumer creates a consumer with one uses port.
func NewConsumer(port, typ string) *Consumer {
	return &Consumer{PortName: port, PortType: typ}
}

// SetServices implements cca.Component.
func (c *Consumer) SetServices(svc cca.Services) error {
	c.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: c.PortName, Type: c.PortType})
}

// Port fetches the connected provider through the framework (GetPort);
// pair with Release.
func (c *Consumer) Port() (cca.Port, error) {
	if c.svc == nil {
		return nil, fmt.Errorf("ccl: consumer not installed")
	}
	return c.svc.GetPort(c.PortName)
}

// Release releases the port taken by Port.
func (c *Consumer) Release() {
	if c.svc != nil {
		c.svc.ReleasePort(c.PortName)
	}
}

// ConsumerType is the repository type name DepositConsumer registers.
const ConsumerType = "cca.DistArrayConsumer"

// consumerSIDL re-opens the cca.ports package with the consumer-side pull
// interface, so repositories can type-check the consumer's uses port.
const consumerSIDL = `
// DistArrayPull is the consumer-side face of a collective DistArray
// connection (repro/internal/cca/collective.PullPort): pull the provider's
// current epoch, redistributed into this cohort's data map.
package cca.ports version 0.5 {
  interface DistArrayPull {
    int globalLength();
    int ranks();
    int localLength(in int rank);
  }
}
`

// DepositConsumer deposits the ConsumerType entry (a consumer with uses
// port "in" of the collective pull type) into a repository. Depositing
// twice is a no-op, so every process that might compile a consumer-bearing
// assembly can call it unconditionally.
func DepositConsumer(r *repo.Repository) error {
	err := r.Deposit(repo.Entry{
		Name:        ConsumerType,
		Version:     "0.1",
		Description: "generic consumer of a collective DistArray pull port",
		SIDL:        consumerSIDL,
		Uses:        []repo.PortSpec{{Name: "in", Type: ccoll.PullPortType}},
		Flavor:      cca.FlavorInProcess | cca.FlavorDistributed,
		Factory:     func() cca.Component { return NewConsumer("in", ccoll.PullPortType) },
	})
	if errors.Is(err, repo.ErrVersionOrder) {
		return nil
	}
	return err
}
