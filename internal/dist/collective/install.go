package collective

import (
	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	"repro/internal/orb"
	"repro/internal/transport"
)

// InstallRemoteDistArray attaches to a remote cohort's published
// collective port and installs the attachment into fw as a proxy component
// named instance whose one provides port is named port and has type
// ccoll.PullPortType. This is the collective analogue of
// dist.InstallSupervisedRemoteOperator: the local cohort (a viz tool, a
// coupled code) connects to that port through the ordinary configuration
// API, unaware the provider lives in another OS
// process — §6.1's transparency requirement applied to §6.3's collective
// ports.
//
// Supervision state changes are bridged to framework health events on the
// proxy's port, so a severed provider surfaces as ConnectionDegraded /
// ConnectionBroken / ConnectionRestored exactly like a scalar remote port.
func InstallRemoteDistArray(fw *framework.Framework, instance, port string, tr transport.Transport, addr, name string, consumer array.DataMap, opts Options) (*Import, error) {
	// The supervisor may fire before Install completes (initial dial
	// retries); SetPortHealth on a not-yet-installed component is a
	// harmless error.
	if opts.Supervisor.OnState == nil {
		opts.Supervisor.OnState = func(s orb.ConnState, cause error) {
			_ = fw.SetPortHealth(instance, port, dist.HealthFor(s), cause)
		}
	}
	imp, err := Attach(tr, addr, name, consumer, opts)
	if err != nil {
		return nil, err
	}
	proxy := &dist.ProxyComponent{PortName: port, PortType: ccoll.PullPortType, Port: imp}
	if err := fw.Install(instance, proxy); err != nil {
		imp.Close() //nolint:errcheck
		return nil, err
	}
	return imp, nil
}
