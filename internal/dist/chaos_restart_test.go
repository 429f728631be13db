package dist

// Crash-restart chaos: a remote step-wise CG solver is killed
// mid-Krylov-iteration, relaunched at a fresh address by the supervisor's
// RestartPolicy, restored from its last per-iteration checkpoint through
// the reserved orb/restore key, and driven on to convergence. The run must
// reach the same answer a clean run produces, the caller must see only
// retryable (never Fatal) errors, and the framework event stream must show
// the Degraded→Restored window.

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/ckpt"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/transport"
)

// iterKey is the dynamic-servant key of the exported step-wise solver.
const iterKey = "op/itersolver"

// iterServer is one incarnation of the remote solver process: a framework
// holding the operator and an IterativeSolverComponent, served over a
// Handler that exposes the step loop and the checkpoint surface.
type iterServer struct {
	fw     *framework.Framework
	solver *esi.IterativeSolverComponent
	exp    *Exporter
	addr   string
}

func startIterServer(tr transport.Transport, addr string, m *linalg.CSR) (*iterServer, error) {
	fw := framework.New(framework.Options{TypeCheck: esi.TypeChecker()})
	if err := fw.Install("op", esi.NewOperatorComponent(m)); err != nil {
		return nil, err
	}
	solver := esi.NewIterativeSolverComponent()
	if err := fw.Install("itersolver", solver); err != nil {
		return nil, err
	}
	if _, err := fw.Connect("itersolver", "A", "op", "A"); err != nil {
		return nil, err
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	exp := NewExporter(fw, l)
	registerIterServant(exp.OA, solver)
	// The restore half of the RestartPolicy contract: replayed checkpoint
	// bytes reconstruct the solver before any step call lands.
	orb.RegisterRestore(exp.OA, func(state []byte) error {
		return ckpt.Unmarshal(state, solver)
	})
	return &iterServer{fw: fw, solver: solver, exp: exp, addr: exp.Addr()}, nil
}

// registerIterServant exposes the step-wise solver's wire surface.
func registerIterServant(oa *orb.ObjectAdapter, s *esi.IterativeSolverComponent) {
	oa.Handle(iterKey, func(method string, args []any, reply *orb.Encoder) error {
		switch method {
		case "begin":
			b, ok := args[0].([]float64)
			if !ok {
				return fmt.Errorf("begin: arg is %T", args[0])
			}
			if err := s.Begin(b); err != nil {
				return err
			}
			return reply.Encode(true)
		case "step":
			k, ok := args[0].(int64)
			if !ok {
				return fmt.Errorf("step: arg is %T", args[0])
			}
			it, resid, done, err := s.Step(int(k))
			if err != nil {
				return err
			}
			reply.Encode(int64(it)) //nolint:errcheck
			reply.Encode(resid)     //nolint:errcheck
			return reply.Encode(done)
		case "checkpoint":
			state, err := ckpt.Marshal(s)
			if err != nil {
				return err
			}
			return reply.Encode(state)
		case "solution":
			return reply.Encode(s.Solution())
		default:
			return fmt.Errorf("itersolver has no method %q", method)
		}
	})
}

func TestChaosKillMidKrylovRestoreResumes(t *testing.T) {
	tr := transport.NewFaulty(&transport.InProc{}, transport.Faults{Seed: 5})
	m := linalg.Poisson2D(8, 8)
	b := make([]float64, m.NRows)
	if err := m.Apply(linalg.Ones(m.NCols), b); err != nil {
		t.Fatal(err)
	}

	srv, err := startIterServer(tr, "chaos-restart-0", m)
	if err != nil {
		t.Fatal(err)
	}

	// Client side: a framework whose event stream observes the outage, a
	// supervised connection whose RestartPolicy relaunches the solver at a
	// fresh address and replays the last checkpoint.
	clientFW := framework.New(framework.Options{
		Flavor:    cca.FlavorInProcess | cca.FlavorDistributed,
		TypeCheck: esi.TypeChecker(),
	})
	trap := newEventTrap()
	clientFW.AddEventListener(trap)

	var mu sync.Mutex
	var lastCkpt []byte
	relaunches := 0
	opts := chaosOpts()
	opts.Idempotent = orb.AllIdempotent
	opts.OnState = func(st orb.ConnState, cause error) {
		_ = clientFW.SetPortHealth("remoteSolver", "solver", HealthFor(st), cause)
	}
	opts.Restart = &orb.RestartPolicy{
		Relaunch: func(attempt int) (string, error) {
			// A genuinely fresh incarnation: new framework, new solver
			// component (cold state), new address. The address counter is
			// global (not per-outage attempt) so incarnations never collide.
			mu.Lock()
			relaunches++
			n := relaunches
			mu.Unlock()
			next, err := startIterServer(tr, fmt.Sprintf("chaos-restart-%d", n), m)
			if err != nil {
				return "", err
			}
			return next.addr, nil
		},
		Checkpoint: func() []byte {
			mu.Lock()
			defer mu.Unlock()
			return lastCkpt
		},
	}
	sup, err := orb.DialSupervised(tr, srv.addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := clientFW.Install("remoteSolver", &ProxyComponent{
		PortName: "solver", PortType: esi.TypeIterativeSolver,
		Port: &RemotePort{Client: sup, Key: iterKey, Type: esi.TypeIterativeSolver},
	}); err != nil {
		t.Fatal(err)
	}

	// call retries retryable failures at the application level — the shape
	// of a standing caller riding out a Degraded window. A Fatal error is
	// an immediate test failure (acceptance: callers never see one).
	call := func(method string, args ...any) []any {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			res, err := sup.Invoke(iterKey, method, args...)
			if err == nil {
				return res
			}
			if orb.Classify(err) == orb.ClassFatal {
				t.Fatalf("fatal error during %s: %v", method, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never recovered: %v", method, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	call("begin", b)
	const killAt = 5
	killed := false
	itBeforeKill := int64(0)
	for guard := 0; ; guard++ {
		if guard > 10000 {
			t.Fatal("solve did not converge")
		}
		res := call("step", int64(1))
		it, done := res[0].(int64), res[2].(bool)
		// The decoded []byte aliases the client's pooled frame buffer; copy
		// before retaining it past this call.
		ck := call("checkpoint")
		mu.Lock()
		lastCkpt = append([]byte(nil), ck[0].([]byte)...)
		mu.Unlock()
		if !killed && it >= killAt {
			// Kill the solver mid-Krylov: the loop is live, state exists
			// only in the servant's memory and our checkpoint bytes.
			killed = true
			itBeforeKill = it
			srv.exp.Close()
			tr.SeverAll()
		}
		if done {
			break
		}
	}

	// The supervisor must actually have relaunched (not just redialed the
	// corpse), and the relaunched solver must have resumed from the replayed
	// checkpoint: a cold solver would fail "step before begin" — a Fatal
	// error call() turns into test failure.
	mu.Lock()
	r := relaunches
	mu.Unlock()
	if r == 0 {
		t.Fatal("server was never relaunched")
	}
	if got := call("step", int64(0))[0].(int64); got < itBeforeKill {
		t.Errorf("iteration count went backwards after restore: %d < %d", got, itBeforeKill)
	}

	// Same answer as the clean run: x = ones within tolerance.
	x := call("solution")[0].([]float64)
	if len(x) != m.NRows {
		t.Fatalf("solution has %d entries, want %d", len(x), m.NRows)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %v: restart changed the answer", i, v)
		}
	}

	// The outage was visible through the configuration API as a
	// Degraded→Restored window on the proxy port.
	trap.wait(t, cca.EventConnectionDegraded)
	trap.wait(t, cca.EventConnectionRestored)
	if h, err := clientFW.PortHealth("remoteSolver", "solver"); err != nil || h != cca.HealthHealthy {
		t.Errorf("post-recovery health = %v, %v", h, err)
	}
}
