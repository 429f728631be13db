package dist

// Chaos suite: the examples/remote topology (a solver framework connected
// to an operator exported from another framework) driven under a Faulty
// transport. Each scenario asserts the supervised distributed connection
// converges to the same answer a clean run produces — the robustness
// counterpart of claim C1: supervision may add latency, never wrong
// answers. Heavier long-running scenarios live in chaos_heavy_test.go
// behind the `chaos` build tag; this file is deterministic and fast enough
// for tier-1.

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/orb"
	"repro/internal/transport"
)

// chaosOpts is the supervision tuning the chaos scenarios run under: tight
// backoff so tests are fast, per-attempt call timeouts so dropped frames
// turn into retries, a low breaker threshold so Broken is reachable.
func chaosOpts() orb.SupervisorOptions {
	return orb.SupervisorOptions{
		ConnectTimeout:   5 * time.Second,
		Retry:            transport.Backoff{Base: time.Millisecond, Cap: 25 * time.Millisecond},
		MaxAttempts:      8,
		CallTimeout:      100 * time.Millisecond,
		BreakerThreshold: 3,
	}
}

// eventTrap records framework configuration events and lets tests wait for
// a specific kind.
type eventTrap struct {
	mu     sync.Mutex
	events []cca.Event
	ch     chan cca.EventKind
}

func newEventTrap() *eventTrap { return &eventTrap{ch: make(chan cca.EventKind, 256)} }

func (e *eventTrap) OnEvent(ev cca.Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
	select {
	case e.ch <- ev.Kind:
	default:
	}
}

func (e *eventTrap) wait(t *testing.T, kind cca.EventKind) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case k := <-e.ch:
			if k == kind {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v event (saw %v)", kind, e.kinds())
		}
	}
}

func (e *eventTrap) kinds() []cca.EventKind {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]cca.EventKind, len(e.events))
	for i, ev := range e.events {
		out[i] = ev.Kind
	}
	return out
}

// chaosTopology builds the examples/remote topology under a Faulty
// transport: server framework exporting a matrix, client framework with a
// supervised proxy component and an unmodified CG solver connected to it.
type chaosTopology struct {
	t      *testing.T
	tr     *transport.Faulty
	addr   string
	m      *linalg.CSR
	server *framework.Framework
	exp    *Exporter
	key    string
	client *framework.Framework
	trap   *eventTrap
	rp     *RemotePort
	solver esi.EsiSolver
	b      []float64
}

func newChaosTopology(t *testing.T, addr string, faults transport.Faults, n int) *chaosTopology {
	t.Helper()
	return newChaosTopologyOn(t, &transport.InProc{}, addr, faults, n, chaosOpts())
}

// newChaosTopologyOn builds the topology over any inner transport (the
// heavy tagged suite uses TCP).
func newChaosTopologyOn(t *testing.T, inner transport.Transport, addr string, faults transport.Faults, n int, opts orb.SupervisorOptions) *chaosTopology {
	t.Helper()
	c := &chaosTopology{
		t:    t,
		tr:   transport.NewFaulty(inner, faults),
		addr: addr,
		m:    linalg.Poisson2D(n, n),
	}
	c.server = framework.New(framework.Options{})
	if err := c.server.Install("op", esi.NewOperatorComponent(c.m)); err != nil {
		t.Fatal(err)
	}
	c.startServer()

	c.client = framework.New(framework.Options{
		Flavor:    cca.FlavorInProcess | cca.FlavorDistributed,
		TypeCheck: esi.TypeChecker(),
	})
	c.trap = newEventTrap()
	c.client.AddEventListener(c.trap)
	rp, err := InstallSupervisedRemoteOperator(c.client, "remoteA", "A", c.tr, c.addr, c.key, esi.TypeMatrixData, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.rp = rp
	if err := c.client.Install("solver", esi.NewSolverComponent("cg")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.client.Connect("solver", "A", "remoteA", "A"); err != nil {
		t.Fatal(err)
	}
	comp, _ := c.client.Component("solver")
	c.solver = comp.(esi.EsiSolver)
	c.solver.SetTolerance(1e-9)
	c.b = make([]float64, c.m.NRows)
	if err := c.m.Apply(linalg.Ones(c.m.NCols), c.b); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rp.Close()
		if c.exp != nil {
			c.exp.Close()
		}
	})
	return c
}

// startServer (re)exports the operator on the topology's address — the
// "restart" half of kill-and-restart.
func (c *chaosTopology) startServer() {
	c.t.Helper()
	l, err := c.tr.Listen(c.addr)
	if err != nil {
		c.t.Fatalf("listen %s: %v", c.addr, err)
	}
	c.exp = NewExporter(c.server, l)
	// Pin the concrete address (TCP "127.0.0.1:0" resolves to a real
	// port) so restarts rebind and the client redials the same endpoint.
	c.addr = c.exp.Addr()
	key, err := c.exp.Export("op", "A")
	if err != nil {
		c.t.Fatal(err)
	}
	c.key = key
}

// killServer stops the exporter, severing every live connection.
func (c *chaosTopology) killServer() {
	c.exp.Close()
	c.exp = nil
	c.tr.SeverAll()
}

// solveAndCheck runs the CG solve and asserts it converges to the all-ones
// solution — the same answer a clean (fault-free) run produces.
func (c *chaosTopology) solveAndCheck() {
	c.t.Helper()
	x := make([]float64, c.m.NRows)
	iters, err := c.solver.Solve(c.b, &x)
	if err != nil {
		c.t.Fatalf("solve under chaos: %v", err)
	}
	if iters == 0 {
		c.t.Fatal("no iterations")
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			c.t.Fatalf("x[%d] = %v: chaos changed the answer", i, v)
		}
	}
}

func TestChaosSolveUnderFrameDrop(t *testing.T) {
	// Frames vanish at random. Every ESI method is idempotent, so each
	// dropped request or reply costs one CallTimeout and a transparent
	// retry; the solve must still converge to the clean answer.
	c := newChaosTopology(t, "chaos-drop", transport.Faults{Seed: 42, DropProb: 0.05}, 8)
	c.solveAndCheck()
	if st := c.tr.Stats(); st.Drops == 0 {
		t.Error("no frames dropped: scenario did not exercise the fault plan")
	}
}

func TestChaosSolveUnderStalls(t *testing.T) {
	// A third of frames stall. Slow frames are not failures: no retry
	// fires (the delay is under CallTimeout) and the answer is unchanged.
	c := newChaosTopology(t, "chaos-stall",
		transport.Faults{Seed: 42, DelayProb: 0.3, Delay: 2 * time.Millisecond}, 8)
	c.solveAndCheck()
	if st := c.tr.Stats(); st.Delays == 0 {
		t.Error("no frames delayed: scenario did not exercise the fault plan")
	}
}

func TestChaosKillAndRestartServer(t *testing.T) {
	// The full supervised lifecycle, observed through the framework's
	// configuration API: kill the server mid-session (Degraded, then
	// Broken once the breaker trips), verify getPort sheds with a typed
	// error instead of hanging, restart the server (Restored), and solve
	// again to the same answer.
	c := newChaosTopology(t, "chaos-kill", transport.Faults{Seed: 7}, 6)
	c.solveAndCheck()

	c.killServer()
	c.trap.wait(t, cca.EventConnectionDegraded)
	c.trap.wait(t, cca.EventConnectionBroken)

	// Broken connection: the framework-mediated path fails fast and typed.
	svc, ok := c.client.Services("solver")
	if !ok {
		t.Fatal("no solver services")
	}
	if _, err := svc.GetPort("A"); !errors.Is(err, cca.ErrConnectionBroken) {
		t.Errorf("GetPort on broken connection = %v, want ErrConnectionBroken", err)
	}
	if h, err := c.client.PortHealth("remoteA", "A"); err != nil || h != cca.HealthBroken {
		t.Errorf("PortHealth = %v, %v, want broken", h, err)
	}

	c.startServer()
	c.trap.wait(t, cca.EventConnectionRestored)
	if _, err := svc.GetPort("A"); err != nil {
		t.Errorf("GetPort after restore: %v", err)
	}
	c.solveAndCheck()
}

// startCohortChaos forms an n-rank process-backend cohort over an inproc
// rendezvous and returns its comms and procs (test-owned; close what the
// scenario does not kill).
func startCohortChaos(t *testing.T, n int, addr string) ([]*mpi.Comm, []*mpi.Proc) {
	t.Helper()
	tr, rest, err := transport.ForScheme(addr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := tr.Listen(rest)
	if err != nil {
		t.Fatal(err)
	}
	rv := mpi.NewRendezvous(l, n)
	t.Cleanup(func() { rv.Close() })
	comms := make([]*mpi.Comm, n)
	procs := make([]*mpi.Proc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], procs[r], errs[r] = mpi.JoinConfig(mpi.ProcConfig{
				Rendezvous: addr, Rank: r, Size: n, Timeout: 10 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	return comms, procs
}

func TestChaosRankDeathMidAllreduce(t *testing.T) {
	// A 4-rank SPMD cohort where each rank runs a framework guarding a
	// provides port on cohort liveness. Rank 3 is killed while the
	// survivors are blocked inside an Allreduce: the collective must fail
	// typed (RankDeadError, retryable under orb.Classify, unwrapping to
	// transport.ErrClosed) instead of hanging, and the failure must surface
	// through the configuration API as ConnectionBroken + PortHealth just
	// like a severed remote link. Using a revoked communicator afterwards
	// is the fatal half of the taxonomy.
	const n = 4
	comms, procs := startCohortChaos(t, n, "inproc://chaos-cohort")

	fws := make([]*framework.Framework, n)
	traps := make([]*eventTrap, n)
	for r := 0; r < n; r++ {
		fws[r] = framework.New(framework.Options{})
		traps[r] = newEventTrap()
		fws[r].AddEventListener(traps[r])
		if err := fws[r].Install("op", esi.NewOperatorComponent(linalg.Poisson2D(4, 4))); err != nil {
			t.Fatal(err)
		}
		if err := GuardCohort(fws[r], procs[r], "op", "A"); err != nil {
			t.Fatal(err)
		}
	}
	if err := GuardCohort(fws[0], procs[0], "op", "nope"); err == nil {
		t.Error("GuardCohort accepted an unknown port")
	}

	// Lockstep rounds: rank 3 leaves after round 3, so every survivor is
	// blocked inside round 4's Allreduce when the kill lands.
	const lastFullRound = 3
	survivorErr := make([]error, n)
	rank3Done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 1; ; round++ {
				got, err := comms[r].AllreduceScalar(1, mpi.Sum)
				if err != nil {
					survivorErr[r] = err
					return
				}
				if got != n {
					t.Errorf("rank %d round %d allreduce = %v, want %d", r, round, got, n)
				}
				if r == 3 && round == lastFullRound {
					close(rank3Done)
					return
				}
			}
		}(r)
	}
	<-rank3Done
	time.Sleep(20 * time.Millisecond) // survivors enter round 4 and block
	procs[3].Kill()
	wg.Wait()

	for _, r := range []int{0, 1, 2} {
		err := survivorErr[r]
		var dead *mpi.RankDeadError
		if !errors.As(err, &dead) {
			t.Fatalf("rank %d mid-allreduce death = %v, want RankDeadError", r, err)
		}
		if dead.Rank != 3 {
			t.Errorf("rank %d saw dead rank %d, want 3", r, dead.Rank)
		}
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("rank %d death error does not unwrap to transport.ErrClosed: %v", r, err)
		}
		if c := orb.Classify(err); c != orb.ClassRetryable {
			t.Errorf("rank %d death classified %v, want retryable", r, c)
		}
		// The guarded port broke, observable exactly like a severed remote
		// connection: the event fires and PortHealth reports Broken with a
		// classified cause.
		traps[r].wait(t, cca.EventConnectionBroken)
		if h, err := fws[r].PortHealth("op", "A"); err != nil || h != cca.HealthBroken {
			t.Errorf("rank %d PortHealth = %v, %v, want broken", r, h, err)
		}
	}

	// Fatal half: a finalized communicator is revoked, which is a caller
	// bug, not a recoverable fault.
	procs[0].Close()
	if err := comms[0].Send(1, 1, nil); !errors.Is(err, mpi.ErrCommRevoked) {
		t.Fatalf("send on revoked comm = %v, want ErrCommRevoked", err)
	} else if c := orb.Classify(err); c != orb.ClassFatal {
		t.Errorf("revoked comm classified %v, want fatal", c)
	}
	if ce := CohortCallError(survivorErr[1]); ce == nil || ce.Class != orb.ClassRetryable {
		t.Errorf("CohortCallError(death) = %+v, want retryable CallError", ce)
	}
	if CohortCallError(nil) != nil {
		t.Error("CohortCallError(nil) != nil")
	}
	procs[1].Close()
	procs[2].Close()
}

func TestChaosSeveredMidSolveRecovers(t *testing.T) {
	// Connections are severed every 6 sends — several times within one
	// solve. The supervisor redials and retries inside the solver's Apply
	// calls; the solver never notices.
	c := newChaosTopology(t, "chaos-midsolve",
		transport.Faults{Seed: 13, SeverAfterSends: 6}, 8)
	c.solveAndCheck()
	if st := c.tr.Stats(); st.Severs == 0 {
		t.Error("no connections severed: scenario did not exercise the fault plan")
	}
}
