package framework

// Quiesce and Swap: the live-replacement path. The standing-load test is
// the package-level statement of the PR's acceptance criterion — a caller
// hammering a port through a swap window sees only the typed retryable
// cca.ErrPortQuiescing, never a torn topology or a wrong answer.

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/ckpt"
)

// statefulAdder is a checkpointable provider: bias is the state a swap
// must carry.
type statefulAdder struct {
	svc      cca.Services
	bias     float64
	released atomic.Bool
}

func (a *statefulAdder) SetServices(svc cca.Services) error {
	a.svc = svc
	return svc.AddProvidesPort(a, cca.PortInfo{Name: "add", Type: "test.AddPort"})
}

func (a *statefulAdder) ReleaseServices() error {
	a.released.Store(true)
	return nil
}

func (a *statefulAdder) Add(x, y float64) float64 { return x + y + a.bias }

func (a *statefulAdder) Checkpoint(wr io.Writer) error {
	w := ckpt.NewWriter(wr)
	w.Float64("bias", a.bias)
	return w.Close()
}

func (a *statefulAdder) Restore(rd io.Reader) error {
	r, err := ckpt.NewReader(rd)
	if err != nil {
		return err
	}
	a.bias, err = r.Float64("bias")
	return err
}

var _ cca.Checkpointable = (*statefulAdder)(nil)

func newStatefulConnected(t *testing.T, bias float64) (*Framework, *callerComponent, *statefulAdder) {
	t.Helper()
	f := New(Options{})
	adder := &statefulAdder{bias: bias}
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

func TestQuiesceShedsAndDrains(t *testing.T) {
	f, caller, _ := newStatefulConnected(t, 0)
	var events []cca.EventKind
	var emu sync.Mutex
	f.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		emu.Lock()
		events = append(events, e.Kind)
		emu.Unlock()
	}))

	// Hold an acquisition so the drain has something to wait for.
	if _, err := caller.svc.GetPort("sum"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Quiesce("adder", "add", 5*time.Second) }()

	// The gate closes promptly even while the drain is blocked: new
	// acquisitions shed with the typed retryable error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := caller.svc.GetPort("sum"); errors.Is(err, cca.ErrPortQuiescing) {
			break // shed before any acquisition: nothing to release
		} else if err == nil {
			caller.svc.ReleasePort("sum")
		}
		if time.Now().After(deadline) {
			t.Fatal("GetPort never started shedding")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("quiesce returned with an acquisition outstanding: %v", err)
	default:
	}

	// Releasing the held acquisition completes the drain.
	if err := caller.svc.ReleasePort("sum"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("quiesce: %v", err)
	}

	// The port stays gated after Quiesce returns — the quiesced window —
	// until Resume lifts it.
	if _, err := caller.svc.GetPort("sum"); !errors.Is(err, cca.ErrPortQuiescing) {
		t.Errorf("gated GetPort = %v, want ErrPortQuiescing", err)
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthDegraded {
		t.Errorf("health during window = %v, want Degraded", h)
	}
	if err := f.Resume("adder", "add"); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.svc.GetPort("sum"); err != nil {
		t.Errorf("GetPort after resume: %v", err)
	}
	caller.svc.ReleasePort("sum")
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("health after resume = %v", h)
	}

	emu.Lock()
	defer emu.Unlock()
	var sawDegraded, sawRestored bool
	for _, k := range events {
		switch k {
		case cca.EventConnectionDegraded:
			sawDegraded = true
		case cca.EventConnectionRestored:
			if !sawDegraded {
				t.Error("Restored before Degraded")
			}
			sawRestored = true
		}
	}
	if !sawDegraded || !sawRestored {
		t.Errorf("events = %v, want Degraded then Restored", events)
	}
}

func TestQuiesceDrainTimeout(t *testing.T) {
	f, caller, _ := newStatefulConnected(t, 0)
	if _, err := caller.svc.GetPort("sum"); err != nil {
		t.Fatal(err)
	}
	err := f.Quiesce("adder", "add", 20*time.Millisecond)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("quiesce with wedged caller = %v, want ErrDrainTimeout", err)
	}
	// The failed quiesce resumed the port: callers are not stranded.
	caller.svc.ReleasePort("sum")
	if _, err := caller.svc.GetPort("sum"); err != nil {
		t.Errorf("GetPort after drain timeout: %v", err)
	}
	caller.svc.ReleasePort("sum")
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("health after drain timeout = %v", h)
	}
}

func TestQuiesceUnknownTargets(t *testing.T) {
	f, _, _ := newStatefulConnected(t, 0)
	if err := f.Quiesce("ghost", "add", 0); !errors.Is(err, ErrComponentUnknown) {
		t.Errorf("unknown component = %v", err)
	}
	if err := f.Quiesce("adder", "ghost", 0); !errors.Is(err, cca.ErrPortUnknown) {
		t.Errorf("unknown port = %v", err)
	}
	if err := f.Resume("ghost", "add"); !errors.Is(err, ErrComponentUnknown) {
		t.Errorf("resume unknown component = %v", err)
	}
	if err := f.Resume("adder", "ghost"); !errors.Is(err, cca.ErrPortUnknown) {
		t.Errorf("resume unknown port = %v", err)
	}
}

func TestServicesQuiescer(t *testing.T) {
	// Components reach quiesce through the standard services handle: the
	// cca.Quiescer optional interface.
	f, _, adder := newStatefulConnected(t, 0)
	q, ok := adder.svc.(cca.Quiescer)
	if !ok {
		t.Fatal("services does not implement cca.Quiescer")
	}
	if err := q.Quiesce("add"); err != nil {
		t.Fatal(err)
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthDegraded {
		t.Errorf("health = %v", h)
	}
	if err := q.Resume("add"); err != nil {
		t.Fatal(err)
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("health = %v", h)
	}
}

func TestSwapCarriesStateAndRewires(t *testing.T) {
	f, caller, old := newStatefulConnected(t, 2)
	var swapped, restored atomic.Int32
	f.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		switch e.Kind {
		case cca.EventComponentSwapped:
			swapped.Add(1)
		case cca.EventConnectionRestored:
			restored.Add(1)
		}
	}))
	if got, _ := caller.Compute(1, 2); got != 5 {
		t.Fatalf("pre-swap Compute = %v", got)
	}

	repl := &statefulAdder{}
	if err := f.Swap("adder", repl); err != nil {
		t.Fatal(err)
	}

	// The caller's connection now lands on the replacement instance —
	// the §6.2 direct-connect guarantee holds across the swap.
	p, err := caller.svc.GetPort("sum")
	if err != nil {
		t.Fatal(err)
	}
	if p.(*statefulAdder) != repl {
		t.Error("connection still points at the old instance")
	}
	caller.svc.ReleasePort("sum")

	// State carried: the replacement computes with the old bias.
	if got, _ := caller.Compute(1, 2); got != 5 {
		t.Errorf("post-swap Compute = %v, want 5 (bias carried)", got)
	}
	if comp, _ := f.Component("adder"); comp != cca.Component(repl) {
		t.Error("instance table not updated")
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("post-swap health = %v", h)
	}
	if !old.released.Load() {
		t.Error("old component's ReleaseServices never ran")
	}
	if swapped.Load() != 1 || restored.Load() == 0 {
		t.Errorf("events: swapped=%d restored=%d", swapped.Load(), restored.Load())
	}
}

func TestSwapStateRequiresCheckpointable(t *testing.T) {
	f, caller, _ := newStatefulConnected(t, 2)
	// A replacement whose Restore rejects the carried state fails the
	// swap typed, and the swap rolls back.
	err := f.Swap("adder", &rejectingAdder{})
	if !errors.Is(err, ErrSwap) {
		t.Fatalf("swap = %v, want ErrSwap", err)
	}
	if got, _ := caller.Compute(1, 2); got != 5 {
		t.Errorf("Compute after failed swap = %v, want old answer", got)
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("health after rollback = %v", h)
	}
}

// rejectingAdder is a statefulAdder whose Restore fails.
type rejectingAdder struct{ statefulAdder }

func (a *rejectingAdder) Restore(io.Reader) error { return errors.New("state rejected") }

// otherPortComponent provides a port the caller is not connected to.
type otherPortComponent struct{}

func (o *otherPortComponent) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(o, cca.PortInfo{Name: "other", Type: "test.Other"})
}

func TestSwapRollbackOnMissingPort(t *testing.T) {
	f, caller, _ := newStatefulConnected(t, 2)
	var swapped atomic.Int32
	f.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		if e.Kind == cca.EventComponentSwapped {
			swapped.Add(1)
		}
	}))
	err := f.Swap("adder", &otherPortComponent{})
	if !errors.Is(err, ErrSwap) {
		t.Fatalf("swap = %v, want ErrSwap", err)
	}
	if got, _ := caller.Compute(1, 2); got != 5 {
		t.Errorf("Compute after failed swap = %v", got)
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("health after rollback = %v", h)
	}
	if swapped.Load() != 0 {
		t.Error("failed swap emitted ComponentSwapped")
	}
}

func TestQuiesceDrainNoFalseZero(t *testing.T) {
	// Regression for an acquire/drain TOCTOU: GetPort publishes its
	// outstanding count BEFORE reading the quiesce gate, so Quiesce can
	// never observe a false zero and return "drained" while a caller is
	// about to walk off with the old port. Workers flag a violation when
	// an acquisition succeeds inside the post-drain, pre-resume window.
	f, caller, _ := newStatefulConnected(t, 0)
	var (
		window     atomic.Bool // true between Quiesce return and Resume
		violations atomic.Int64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := caller.svc.GetPort("sum"); err != nil {
					// Shed: nothing acquired. Back off like a real retry
					// loop would, so single-core runs don't starve the
					// quiescer goroutine under pure shed churn.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				// If we hold the port, the drain must still be waiting on
				// us — it cannot have returned before our ReleasePort.
				if window.Load() {
					violations.Add(1)
				}
				caller.svc.ReleasePort("sum")
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if err := f.Quiesce("adder", "add", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		window.Store(true)
		runtime.Gosched()
		window.Store(false)
		if err := f.Resume("adder", "add"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d acquisitions succeeded inside the drained window", v)
	}
}

// twoPortAdder additionally provides an "extra" AddPort that nothing is
// connected to at swap-check time — the hole the step-4 revalidation pass
// must cover.
type twoPortAdder struct{ statefulAdder }

func (a *twoPortAdder) SetServices(svc cca.Services) error {
	a.svc = svc
	if err := svc.AddProvidesPort(a, cca.PortInfo{Name: "add", Type: "test.AddPort"}); err != nil {
		return err
	}
	return svc.AddProvidesPort(a, cca.PortInfo{Name: "extra", Type: "test.AddPort"})
}

// hookedAdder runs a hook during Restore — that is, inside the swap's step
// 3, after the read-locked compatibility check released its lock and
// before the rewire takes the write lock.
type hookedAdder struct {
	statefulAdder
	onRestore func() error
}

func (h *hookedAdder) Restore(rd io.Reader) error {
	if h.onRestore != nil {
		if err := h.onRestore(); err != nil {
			return err
		}
	}
	return h.statefulAdder.Restore(rd)
}

func TestSwapAbortsOnLateConnection(t *testing.T) {
	// A Connect that lands between the compatibility check and the rewire,
	// on a provides port the replacement lacks, must abort the swap with
	// ErrSwap — not rewire the connection through a zero-value entry whose
	// nil port a later GetPort would hand to a caller.
	f := New(Options{})
	old := &twoPortAdder{statefulAdder{bias: 2}}
	caller := &callerComponent{}
	late := &callerComponent{}
	for name, comp := range map[string]cca.Component{
		"adder": old, "caller": caller, "late": late,
	} {
		if err := f.Install(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Connect("caller", "sum", "adder", "add"); err != nil {
		t.Fatal(err)
	}

	repl := &hookedAdder{} // provides only "add"
	repl.onRestore = func() error {
		_, err := f.Connect("late", "sum", "adder", "extra")
		return err
	}
	if err := f.Swap("adder", repl); !errors.Is(err, ErrSwap) {
		t.Fatalf("swap with late connection = %v, want ErrSwap", err)
	}

	// The old assembly is intact and resumed: both the checked and the
	// late connection still reach the old instance.
	if got, _ := caller.Compute(1, 2); got != 5 {
		t.Errorf("caller Compute after aborted swap = %v, want 5", got)
	}
	if got, _ := late.Compute(1, 2); got != 5 {
		t.Errorf("late Compute after aborted swap = %v, want 5", got)
	}
	if comp, _ := f.Component("adder"); comp != cca.Component(old) {
		t.Error("aborted swap replaced the instance")
	}
	if h, _ := f.PortHealth("adder", "add"); h != cca.HealthHealthy {
		t.Errorf("health after aborted swap = %v", h)
	}
}

// TestSwapDrainTimeoutRollsBack holds a caller's acquisition across a swap.
// Swap takes no drain bound, so the test waits out the default 5 s one;
// TestQuiesceDrainTimeout checks the bound itself with a short timeout.
func TestSwapDrainTimeoutRollsBack(t *testing.T) {
	f, caller, _ := newStatefulConnected(t, 2)
	if _, err := caller.svc.GetPort("sum"); err != nil {
		t.Fatal(err)
	}
	err := f.Swap("adder", &statefulAdder{})
	if !errors.Is(err, ErrSwap) || !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("swap with wedged caller = %v, want ErrSwap+ErrDrainTimeout", err)
	}
	caller.svc.ReleasePort("sum")
	if got, _ := caller.Compute(1, 2); got != 5 {
		t.Errorf("Compute after timed-out swap = %v", got)
	}
}

func TestSwapUnknownComponent(t *testing.T) {
	f := New(Options{})
	if err := f.Swap("ghost", &statefulAdder{}); !errors.Is(err, ErrSwap) {
		t.Errorf("swap unknown = %v", err)
	}
}

// relayComponent both provides an AddPort and uses one: swap must carry its
// downstream uses connections to the replacement.
type relayComponent struct {
	svc cca.Services
}

func (r *relayComponent) SetServices(svc cca.Services) error {
	r.svc = svc
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "inner", Type: "test.AddPort"}); err != nil {
		return err
	}
	return svc.AddProvidesPort(r, cca.PortInfo{Name: "add", Type: "test.AddPort"})
}

func (r *relayComponent) Add(x, y float64) float64 {
	p, err := r.svc.GetPort("inner")
	if err != nil {
		return -1
	}
	defer r.svc.ReleasePort("inner")
	return p.(AddPort).Add(x, y) + 100
}

func TestSwapInheritsUsesConnections(t *testing.T) {
	f := New(Options{})
	caller := &callerComponent{}
	for name, comp := range map[string]cca.Component{
		"adder": &statefulAdder{bias: 1}, "relay": &relayComponent{}, "caller": caller,
	} {
		if err := f.Install(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Connect("relay", "inner", "adder", "add"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect("caller", "sum", "relay", "add"); err != nil {
		t.Fatal(err)
	}
	if got, _ := caller.Compute(1, 2); got != 104 {
		t.Fatalf("pre-swap Compute = %v", got)
	}

	repl := &relayComponent{}
	if err := f.Swap("relay", repl); err != nil {
		t.Fatal(err)
	}
	// The replacement relay reaches the adder through the inherited
	// connection, and the caller reaches the replacement relay.
	if got, _ := caller.Compute(1, 2); got != 104 {
		t.Errorf("post-swap Compute = %v, want 104", got)
	}
}

func TestSwapUnderStandingLoad(t *testing.T) {
	// The acceptance criterion, in miniature: callers hammer the port
	// through the swap window and may observe ONLY (a) correct old answers,
	// (b) correct new answers, or (c) the typed retryable shed error.
	f, _, _ := newStatefulConnected(t, 2)
	svc, ok := f.Services("caller")
	if !ok {
		t.Fatal("no caller services")
	}

	const workers = 4
	stop := make(chan struct{})
	bad := make(chan string, workers)
	var sheds, calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := svc.GetPort("sum")
				if err != nil {
					if errors.Is(err, cca.ErrPortQuiescing) {
						sheds.Add(1)
						continue
					}
					select {
					case bad <- err.Error():
					default:
					}
					return
				}
				got := p.(AddPort).Add(1, 2)
				svc.ReleasePort("sum")
				calls.Add(1)
				if got != 5 {
					select {
					case bad <- "wrong answer under swap":
					default:
					}
					return
				}
			}
		}()
	}

	// Let the load establish, then swap — several times, to stress the
	// window repeatedly. Bias 2 is carried every time, so the answer never
	// changes; only the instance identity does.
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := f.Swap("adder", &statefulAdder{}); err != nil {
			t.Fatalf("swap %d under load: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	select {
	case msg := <-bad:
		t.Fatalf("standing caller saw a non-retryable failure: %s", msg)
	default:
	}
	if calls.Load() == 0 {
		t.Error("standing load made no successful calls")
	}
	t.Logf("standing load: %d calls, %d retryable sheds over 5 swaps", calls.Load(), sheds.Load())
}
