package framework

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cca"
)

// AddPort is the demo port interface used throughout these tests.
type AddPort interface {
	Add(a, b float64) float64
}

// adderComponent provides an AddPort.
type adderComponent struct {
	svc  cca.Services
	bias float64
}

func (a *adderComponent) SetServices(svc cca.Services) error {
	a.svc = svc
	return svc.AddProvidesPort(a, cca.PortInfo{Name: "add", Type: "test.AddPort"})
}

func (a *adderComponent) Add(x, y float64) float64 { return x + y + a.bias }

// callerComponent uses an AddPort.
type callerComponent struct {
	svc cca.Services
}

func (c *callerComponent) SetServices(svc cca.Services) error {
	c.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "sum", Type: "test.AddPort"})
}

// Compute fetches the connected port and calls through it.
func (c *callerComponent) Compute(a, b float64) (float64, error) {
	p, err := c.svc.GetPort("sum")
	if err != nil {
		return 0, err
	}
	defer c.svc.ReleasePort("sum")
	return p.(AddPort).Add(a, b), nil
}

func newConnected(t *testing.T) (*Framework, *callerComponent, *adderComponent) {
	t.Helper()
	f := New(Options{})
	adder := &adderComponent{}
	caller := &callerComponent{}
	if err := f.Install("adder", adder); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("caller", caller); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("caller", "sum", "adder", "add"); err != nil {
		t.Fatal(err)
	}
	return f, caller, adder
}

func TestConnectAndCall(t *testing.T) {
	_, caller, _ := newConnected(t)
	got, err := caller.Compute(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("Compute = %v", got)
	}
}

func TestDirectConnectIsSameValue(t *testing.T) {
	// The paper's §6.2 guarantee: the user receives the provider's very
	// interface value, so a port call is a plain dynamic dispatch.
	f, caller, adder := newConnected(t)
	_ = f
	p, err := caller.svc.GetPort("sum")
	if err != nil {
		t.Fatal(err)
	}
	if p.(*adderComponent) != adder {
		t.Error("connected port is not the provider's registered value")
	}
}

func TestInstallDuplicate(t *testing.T) {
	f := New(Options{})
	if err := f.Install("a", &adderComponent{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("a", &adderComponent{}); !errors.Is(err, ErrComponentExists) {
		t.Errorf("err = %v", err)
	}
}

func TestGetPortUnconnected(t *testing.T) {
	f := New(Options{})
	caller := &callerComponent{}
	if err := f.Install("caller", caller); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Compute(1, 2); !errors.Is(err, cca.ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
}

func TestGetPortNotRegistered(t *testing.T) {
	f := New(Options{})
	caller := &callerComponent{}
	if err := f.Install("caller", caller); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.svc.GetPort("nonesuch"); !errors.Is(err, cca.ErrPortNotUses) {
		t.Errorf("err = %v", err)
	}
}

func TestConnectTypeMismatch(t *testing.T) {
	f := New(Options{})
	if err := f.Install("adder", &adderComponent{}); err != nil {
		t.Fatal(err)
	}
	mis := &misTypedCaller{}
	if err := f.Install("caller", mis); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("caller", "sum", "adder", "add"); !errors.Is(err, cca.ErrTypeMismatch) {
		t.Errorf("err = %v", err)
	}
}

type misTypedCaller struct{ svc cca.Services }

func (c *misTypedCaller) SetServices(svc cca.Services) error {
	c.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "sum", Type: "test.MulPort"})
}

func TestConnectUnknownTargets(t *testing.T) {
	f, _, _ := newConnected(t)
	if _, err := f.Connect("ghost", "sum", "adder", "add"); !errors.Is(err, ErrComponentUnknown) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.Connect("caller", "sum", "adder", "nope"); !errors.Is(err, cca.ErrPortUnknown) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.Connect("caller", "nope", "adder", "add"); !errors.Is(err, cca.ErrPortUnknown) {
		t.Errorf("err = %v", err)
	}
}

func TestMultiConnectionFanOut(t *testing.T) {
	// "one call may correspond to zero or more invocations on provider
	// components."
	f := New(Options{})
	caller := &callerComponent{}
	a1 := &adderComponent{bias: 0}
	a2 := &adderComponent{bias: 100}
	for name, comp := range map[string]cca.Component{"caller": caller, "a1": a1, "a2": a2} {
		if err := f.Install(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Connect("caller", "sum", "a1", "add"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("caller", "sum", "a2", "add"); err != nil {
		t.Fatal(err)
	}
	// GetPort is ambiguous now.
	if _, err := caller.svc.GetPort("sum"); !errors.Is(err, cca.ErrMultiConnected) {
		t.Errorf("GetPort err = %v", err)
	}
	ports, err := caller.svc.GetPorts("sum")
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 {
		t.Fatalf("%d listeners", len(ports))
	}
	var results []float64
	for _, p := range ports {
		results = append(results, p.(AddPort).Add(1, 2))
	}
	if results[0] != 3 || results[1] != 103 {
		t.Errorf("fan-out results = %v", results)
	}
}

func TestGetPortsUnconnectedIsEmpty(t *testing.T) {
	f := New(Options{})
	caller := &callerComponent{}
	if err := f.Install("caller", caller); err != nil {
		t.Fatal(err)
	}
	ports, err := caller.svc.GetPorts("sum")
	if err != nil || len(ports) != 0 {
		t.Errorf("GetPorts = %v, %v (want empty, nil)", ports, err)
	}
}

func TestDisconnect(t *testing.T) {
	f, caller, _ := newConnected(t)
	conns := f.Connections()
	if len(conns) != 1 {
		t.Fatalf("connections = %v", conns)
	}
	if err := f.Disconnect(conns[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Compute(1, 1); !errors.Is(err, cca.ErrNotConnected) {
		t.Errorf("post-disconnect err = %v", err)
	}
	if err := f.Disconnect(conns[0]); !errors.Is(err, cca.ErrNotConnected) {
		t.Errorf("double disconnect err = %v", err)
	}
}

func TestRemoveDisconnectsBothSides(t *testing.T) {
	f, caller, _ := newConnected(t)
	if err := f.Remove("adder"); err != nil {
		t.Fatal(err)
	}
	if len(f.Connections()) != 0 {
		t.Errorf("connections survive removal: %v", f.Connections())
	}
	if _, err := caller.Compute(1, 1); !errors.Is(err, cca.ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
	if err := f.Remove("adder"); !errors.Is(err, ErrComponentUnknown) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestEvents(t *testing.T) {
	f := New(Options{})
	var mu sync.Mutex
	var log []string
	f.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		mu.Lock()
		log = append(log, e.Kind.String())
		mu.Unlock()
	}))
	adder, caller := &adderComponent{}, &callerComponent{}
	if err := f.Install("adder", adder); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("caller", caller); err != nil {
		t.Fatal(err)
	}
	id, err := f.Connect("caller", "sum", "adder", "add")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Disconnect(id); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("adder"); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("bad", badComponent{}); err == nil {
		t.Fatal("install of a failing component succeeded")
	}
	want := []string{"component-added", "component-added", "connected", "disconnected", "component-removed", "component-failed"}
	mu.Lock()
	defer mu.Unlock()
	if len(log) != len(want) {
		t.Fatalf("events = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("event[%d] = %s, want %s", i, log[i], want[i])
		}
	}
}

func TestProxyInterposition(t *testing.T) {
	// §6.2: "the provided DirectConnectPort can be translated through a
	// proxy ... without the components on either end needing to know."
	var proxied int
	f := New(Options{
		Proxy: func(p cca.Port, info cca.PortInfo) cca.Port {
			return proxyAdd{inner: p.(AddPort), count: &proxied}
		},
	})
	adder, caller := &adderComponent{}, &callerComponent{}
	if err := f.Install("adder", adder); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("caller", caller); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("caller", "sum", "adder", "add"); err != nil {
		t.Fatal(err)
	}
	got, err := caller.Compute(4, 5)
	if err != nil || got != 9 {
		t.Fatalf("Compute = %v, %v", got, err)
	}
	if proxied != 1 {
		t.Errorf("proxy saw %d calls", proxied)
	}
}

type proxyAdd struct {
	inner AddPort
	count *int
}

func (p proxyAdd) Add(a, b float64) float64 {
	*p.count++
	return p.inner.Add(a, b)
}

func TestFlavorRequirement(t *testing.T) {
	f := New(Options{Flavor: cca.FlavorInProcess})
	if err := f.Install("needy", &needyComponent{}); !errors.Is(err, ErrFlavor) {
		t.Errorf("err = %v", err)
	}
	f2 := New(Options{Flavor: cca.FlavorInProcess | cca.FlavorCollective})
	if err := f2.Install("needy", &needyComponent{}); err != nil {
		t.Errorf("err = %v", err)
	}
}

type needyComponent struct{}

func (n *needyComponent) SetServices(svc cca.Services) error { return nil }
func (n *needyComponent) RequiredFlavor() cca.Flavor         { return cca.FlavorCollective }

func TestSetServicesErrorRollsBack(t *testing.T) {
	f := New(Options{})
	if err := f.Install("bad", badComponent{}); err == nil {
		t.Fatal("install of failing component succeeded")
	}
	if _, ok := f.Component("bad"); ok {
		t.Error("failed component left installed")
	}
}

type badComponent struct{}

func (badComponent) SetServices(svc cca.Services) error { return errors.New("cannot init") }

func TestReleaseServicesOnRemove(t *testing.T) {
	f := New(Options{})
	rc := &releasingComponent{}
	if err := f.Install("r", rc); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("r"); err != nil {
		t.Fatal(err)
	}
	if !rc.released {
		t.Error("ReleaseServices not called")
	}
}

type releasingComponent struct{ released bool }

func (r *releasingComponent) SetServices(svc cca.Services) error { return nil }
func (r *releasingComponent) ReleaseServices() error {
	r.released = true
	return nil
}

func TestPortNameCollisionAcrossKinds(t *testing.T) {
	f := New(Options{})
	c := &collidingComponent{}
	if err := f.Install("c", c); err == nil {
		t.Fatal("colliding registration accepted")
	}
}

type collidingComponent struct{}

func (collidingComponent) SetServices(svc cca.Services) error {
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "p", Type: "t"}); err != nil {
		return err
	}
	return svc.AddProvidesPort(struct{}{}, cca.PortInfo{Name: "p", Type: "t"})
}

func TestServicesListingsAndInfo(t *testing.T) {
	_, caller, adder := newConnected(t)
	if names := adder.svc.ProvidesPortNames(); len(names) != 1 || names[0] != "add" {
		t.Errorf("provides = %v", names)
	}
	if names := caller.svc.UsesPortNames(); len(names) != 1 || names[0] != "sum" {
		t.Errorf("uses = %v", names)
	}
	info, ok := caller.svc.PortInfo("sum")
	if !ok || info.Type != "test.AddPort" {
		t.Errorf("info = %+v, %v", info, ok)
	}
	if _, ok := caller.svc.PortInfo("nope"); ok {
		t.Error("phantom port info")
	}
	if caller.svc.ComponentName() != "caller" {
		t.Errorf("component name = %q", caller.svc.ComponentName())
	}
}

func TestConcurrentConnectCallDisconnect(t *testing.T) {
	// Framework mutation must be safe while other goroutines call ports.
	f := New(Options{})
	adder := &adderComponent{}
	if err := f.Install("adder", adder); err != nil {
		t.Fatal(err)
	}
	callers := make([]*callerComponent, 8)
	for i := range callers {
		callers[i] = &callerComponent{}
		if err := f.Install(fmt.Sprintf("c%d", i), callers[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *callerComponent) {
			defer wg.Done()
			name := fmt.Sprintf("c%d", i)
			for k := 0; k < 100; k++ {
				id, err := f.Connect(name, "sum", "adder", "add")
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				if got, err := c.Compute(1, float64(k)); err != nil || got != float64(k)+1 {
					t.Errorf("compute: %v %v", got, err)
					return
				}
				if err := f.Disconnect(id); err != nil {
					t.Errorf("disconnect: %v", err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
}

func TestParseFlavorRoundTrip(t *testing.T) {
	for _, fl := range []cca.Flavor{0, cca.FlavorInProcess, cca.FlavorInProcess | cca.FlavorCollective | cca.FlavorReflection} {
		got, err := cca.ParseFlavor(fl.String())
		if err != nil || got != fl {
			t.Errorf("round trip %v -> %q -> %v, %v", fl, fl.String(), got, err)
		}
	}
	if _, err := cca.ParseFlavor("quantum"); err == nil {
		t.Error("unknown flavor parsed")
	}
}
