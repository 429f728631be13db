package collective

// Tests for the framework wiring: InstallRemoteDistArray must expose the
// attachment as an ordinary provides port and surface supervision state
// through the same connection-health events scalar remote ports use.

import (
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/cca"
	ccoll "repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/transport"
)

// vizComponent is a minimal consumer with one uses port of the pull type.
type vizComponent struct{ svc cca.Services }

func (v *vizComponent) SetServices(svc cca.Services) error {
	v.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "in", Type: ccoll.PullPortType})
}

func (v *vizComponent) RequiredFlavor() cca.Flavor { return cca.FlavorDistributed }

func TestInstallRemoteDistArray(t *testing.T) {
	const gl = 120
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 2
	}
	src := array.NewBlockMap(gl, 2)
	inner := &transport.InProc{}
	srv, pub := serve(t, inner, "coll-install", "wave", cohort(src, global))
	defer srv.Close()
	defer pub.Close()

	faulty := transport.NewFaulty(inner, transport.Faults{})
	fw := framework.New(framework.Options{Flavor: cca.FlavorInProcess | cca.FlavorDistributed})
	events := make(chan cca.EventKind, 64)
	fw.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		select {
		case events <- e.Kind:
		default:
		}
	}))

	dst := array.NewCyclicMap(gl, 2, 4)
	imp, err := InstallRemoteDistArray(fw, "viz-proxy", "field", faulty, "coll-install", "wave", dst, Options{ChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()

	// The attachment must be reachable only through the configuration API:
	// a using component connects to the proxy's provides port and pulls
	// through the ccoll.PullPort interface, unaware of the process boundary.
	viz := &vizComponent{}
	if err := fw.Install("viz", viz); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Connect("viz", "in", "viz-proxy", "field"); err != nil {
		t.Fatal(err)
	}
	port, err := viz.svc.GetPort("in")
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := port.(ccoll.PullPort)
	if !ok {
		t.Fatalf("port is %T, want ccoll.PullPort", port)
	}
	if pp.GlobalLen() != gl || pp.Ranks() != 2 {
		t.Fatalf("port geometry %d/%d", pp.GlobalLen(), pp.Ranks())
	}
	out := make([]float64, pp.LocalLen(1))
	if err := pp.Pull(1, out); err != nil {
		t.Fatal(err)
	}
	if want := wantLocal(dst, global, 1); !floatsEqual(out, want) {
		t.Fatal("framework-mediated pull returned wrong data")
	}

	// A severed link must surface as the standard event pair, on the port
	// name the installer was given.
	faulty.SeverAll()
	waitEvent(t, events, cca.EventConnectionDegraded)
	waitEvent(t, events, cca.EventConnectionRestored)
	if err := pp.Pull(1, out); err != nil {
		t.Fatalf("pull after heal: %v", err)
	}
}

func waitEvent(t *testing.T, events <-chan cca.EventKind, want cca.EventKind) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case k := <-events:
			if k == want {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v", want)
		}
	}
}
