package dist

import (
	"errors"
	"fmt"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/esi"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

// ErrDist reports distributed-connection failures.
var ErrDist = errors.New("dist: distributed connection error")

// Distributed-topology counters: how many ports this process has exported
// and how many remote proxies it has installed.
var (
	cExports        = obs.NewCounter("dist.exports")
	cRemoteInstalls = obs.NewCounter("dist.remote_installs")
)

// Exporter publishes provides ports from a framework over a transport.
type Exporter struct {
	FW     *framework.Framework
	OA     *orb.ObjectAdapter
	server *orb.Server
}

// NewExporter creates an exporter for fw and starts serving on l.
func NewExporter(fw *framework.Framework, l transport.Listener) *Exporter {
	oa := orb.NewObjectAdapter()
	return &Exporter{FW: fw, OA: oa, server: orb.Serve(oa, l)}
}

// Addr reports the served address for clients to dial.
func (e *Exporter) Addr() string { return e.server.Addr() }

// Close stops serving: in-flight calls drain (orb.Server.Close), then
// every connection closes.
func (e *Exporter) Close() { e.server.Close() }

// Export publishes component's provides port under the object key
// "component/port". The port's SIDL type must be registered in the global
// reflection registry (generated bindings do this automatically).
func (e *Exporter) Export(component, port string) (key string, err error) {
	svc, ok := e.FW.Services(component)
	if !ok {
		return "", fmt.Errorf("%w: no component %q", ErrDist, component)
	}
	info, ok := svc.PortInfo(port)
	if !ok {
		return "", fmt.Errorf("%w: %s has no port %q", ErrDist, component, port)
	}
	ti, ok := sreflect.Global.Lookup(info.Type)
	if !ok {
		return "", fmt.Errorf("%w: no reflection metadata for port type %q", ErrDist, info.Type)
	}
	// Fetch the provider's registered value through a scratch uses port on
	// a probe component — the framework is the only sanctioned path to a
	// provides port (§6.1).
	probe := &probeComponent{portType: info.Type}
	probeName := "dist.probe." + component + "." + port
	if err := e.FW.Install(probeName, probe); err != nil {
		return "", err
	}
	defer e.FW.Remove(probeName) //nolint:errcheck // best-effort cleanup
	id, err := e.FW.Connect(probeName, "target", component, port)
	if err != nil {
		return "", err
	}
	defer e.FW.Disconnect(id) //nolint:errcheck
	impl, err := probe.svc.GetPort("target")
	if err != nil {
		return "", err
	}
	key = component + "/" + port
	if err := e.OA.Register(key, ti, impl); err != nil {
		return "", err
	}
	cExports.Inc()
	return key, nil
}

// probeComponent is the exporter's internal uses-port holder.
type probeComponent struct {
	portType string
	svc      cca.Services
}

func (p *probeComponent) SetServices(svc cca.Services) error {
	p.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "target", Type: p.portType})
}

// RemotePort is a generic dynamic proxy for an exported port: Call forwards
// a method by SIDL name through the ORB. Typed adapters (RemoteOperator,
// RemoteMatrixData) wrap it with compile-time interfaces.
type RemotePort struct {
	Client *orb.Supervised
	Key    string
	Type   string
}

// DialSupervised connects to an exporter under supervision: the connection
// redials with backoff after loss, idempotent methods retry transparently,
// and a circuit breaker sheds calls from a dead peer. The ESI operator
// surface is read-only, so every method is marked idempotent by default
// when opts.Idempotent is nil.
func DialSupervised(tr transport.Transport, addr, key, portType string, opts orb.SupervisorOptions) (*RemotePort, error) {
	if opts.Idempotent == nil {
		opts.Idempotent = orb.AllIdempotent
	}
	s, err := orb.DialSupervised(tr, addr, opts)
	if err != nil {
		return nil, err
	}
	return &RemotePort{Client: s, Key: key, Type: portType}, nil
}

// Call invokes a remote method by SIDL method name.
func (r *RemotePort) Call(method string, args ...any) ([]any, error) {
	return r.Client.Invoke(r.Key, method, args...)
}

// Close releases the client connection.
func (r *RemotePort) Close() error { return r.Client.Close() }

// --- typed ESI adapters ---

// RemoteOperator adapts a RemotePort to the generated EsiOperator
// interface, so a SolverComponent can be connected to a matrix living in
// another framework (possibly another machine) without modification.
type RemoteOperator struct {
	R *RemotePort
}

var _ esi.EsiOperator = (*RemoteOperator)(nil)

// TypeName implements EsiObject.
func (o *RemoteOperator) TypeName() string {
	res, err := o.R.Call("typeName")
	if err != nil || len(res) != 1 {
		return "remote:" + o.R.Key
	}
	s, _ := res[0].(string)
	return s
}

// Rows implements EsiOperator.
func (o *RemoteOperator) Rows() int32 {
	res, err := o.R.Call("rows")
	if err != nil || len(res) != 1 {
		return 0
	}
	n, _ := res[0].(int32)
	return n
}

// Apply implements EsiOperator. The inout y crosses the wire by value:
// marshaled out, result marshaled back — the honest cost of a distributed
// connection.
func (o *RemoteOperator) Apply(x []float64, y *[]float64) error {
	if y == nil {
		return fmt.Errorf("%w: nil output", ErrDist)
	}
	res, err := o.R.Call("apply", x, *y)
	if err != nil {
		return err
	}
	if len(res) != 1 {
		return fmt.Errorf("%w: apply returned %d values", ErrDist, len(res))
	}
	out, ok := res[0].([]float64)
	if !ok {
		return fmt.Errorf("%w: apply returned %T", ErrDist, res[0])
	}
	*y = out
	return nil
}

// RemoteMatrixData extends RemoteOperator with the MatrixData queries.
type RemoteMatrixData struct {
	RemoteOperator
}

var _ esi.EsiMatrixData = (*RemoteMatrixData)(nil)

// Nonzeros implements EsiMatrixData.
func (m *RemoteMatrixData) Nonzeros() int32 {
	res, err := m.R.Call("nonzeros")
	if err != nil || len(res) != 1 {
		return 0
	}
	n, _ := res[0].(int32)
	return n
}

// Diagonal implements EsiMatrixData.
func (m *RemoteMatrixData) Diagonal(d *[]float64) error {
	if d == nil {
		return fmt.Errorf("%w: nil output", ErrDist)
	}
	res, err := m.R.Call("diagonal", *d)
	if err != nil {
		return err
	}
	if len(res) != 1 {
		return fmt.Errorf("%w: diagonal returned %d values", ErrDist, len(res))
	}
	out, ok := res[0].([]float64)
	if !ok {
		return fmt.Errorf("%w: diagonal returned %T", ErrDist, res[0])
	}
	*d = out
	return nil
}

// ProxyComponent installs a remote port into a local framework as an
// ordinary provides port: the §6.1 "proxy intermediary". The local using
// component connects to it exactly as it would to a direct provider.
type ProxyComponent struct {
	PortName string
	PortType string
	Port     cca.Port
}

// SetServices implements cca.Component.
func (p *ProxyComponent) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(p.Port, cca.PortInfo{
		Name: p.PortName,
		Type: p.PortType,
		Properties: map[string]string{
			"distributed": "true",
		},
	})
}

// RequiredFlavor declares the distributed compliance requirement.
func (p *ProxyComponent) RequiredFlavor() cca.Flavor { return cca.FlavorDistributed }

// HealthFor maps supervised connection states onto the configuration API's
// connection health values. Remote-port installers — both the scalar one
// here and the collective one in repro/internal/dist/collective — use it to
// bridge orb.SupervisorOptions.OnState transitions to framework health
// events, so every remote flavor reports link health identically.
func HealthFor(s orb.ConnState) cca.Health {
	switch s {
	case orb.StateDegraded:
		return cca.HealthDegraded
	case orb.StateBroken:
		return cca.HealthBroken
	default:
		return cca.HealthHealthy
	}
}

// InstallSupervisedRemoteOperator dials an exported esi.Operator or
// esi.MatrixData port and installs a proxy component named instance
// providing it locally under the name port. The connection is supervised: the
// proxy's provides port redials, retries, and circuit-breaks per opts (the
// zero value is usable), and every supervision state change is surfaced through the framework's event mechanism as a
// ConnectionDegraded / ConnectionBroken / ConnectionRestored event on the
// proxy's port — so builders and tools observe remote-link health through
// the same configuration API they already use (§5).
func InstallSupervisedRemoteOperator(fw *framework.Framework, instance, port string, tr transport.Transport, addr, key, portType string, opts orb.SupervisorOptions) (*RemotePort, error) {
	// Bridge supervision transitions to framework health events. The
	// supervisor may fire before Install completes (initial dial retries);
	// SetPortHealth on a not-yet-installed component is a harmless error.
	if opts.OnState == nil {
		opts.OnState = func(s orb.ConnState, cause error) {
			_ = fw.SetPortHealth(instance, port, HealthFor(s), cause)
		}
	}
	rp, err := DialSupervised(tr, addr, key, portType, opts)
	if err != nil {
		return nil, err
	}
	var adapter cca.Port
	switch portType {
	case esi.TypeMatrixData:
		adapter = &RemoteMatrixData{RemoteOperator{R: rp}}
	case esi.TypeOperator:
		adapter = &RemoteOperator{R: rp}
	default:
		rp.Close()
		return nil, fmt.Errorf("%w: no typed adapter for %q", ErrDist, portType)
	}
	if err := fw.Install(instance, &ProxyComponent{PortName: port, PortType: portType, Port: adapter}); err != nil {
		rp.Close()
		return nil, err
	}
	cRemoteInstalls.Inc()
	return rp, nil
}
