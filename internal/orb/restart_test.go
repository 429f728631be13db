package orb

// Tests for the crash-restart half of supervision: RestartPolicy relaunch +
// checkpoint replay through the reserved orb/restore key, the per-outage
// restart budget, and heartbeat suppression while the breaker is open.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// counterServer serves a one-value store whose state a restart must carry:
// "set"/"get" mutate and read it, RegisterRestore replays it.
type counterServer struct {
	srv *Server
	mu  sync.Mutex
	val int64
}

func startCounterServer(t *testing.T, tr transport.Transport, addr string) *counterServer {
	t.Helper()
	c := &counterServer{}
	oa := NewObjectAdapter()
	oa.Handle("counter", func(method string, args []any, reply *Encoder) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch method {
		case "set":
			c.val = args[0].(int64)
			return reply.Encode(true)
		case "get":
			return reply.Encode(c.val)
		default:
			return errors.New("no such method: " + method)
		}
	})
	RegisterRestore(oa, func(state []byte) error {
		if len(state) != 8 {
			return fmt.Errorf("restore state is %d bytes", len(state))
		}
		v := int64(0)
		for i := 7; i >= 0; i-- {
			v = v<<8 | int64(state[i])
		}
		c.mu.Lock()
		c.val = v
		c.mu.Unlock()
		return nil
	})
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	c.srv = Serve(oa, l)
	return c
}

func encodeVal(v int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func TestRestartPolicyRelaunchesAndReplays(t *testing.T) {
	tr := &transport.InProc{}
	first := startCounterServer(t, tr, "restart-0")

	var mu sync.Mutex
	var relaunches int
	opts, states := fastOpts()
	opts.CallTimeout = 100 * time.Millisecond
	opts.Restart = &RestartPolicy{
		Relaunch: func(attempt int) (string, error) {
			mu.Lock()
			relaunches++
			n := relaunches
			mu.Unlock()
			addr := fmt.Sprintf("restart-%d", n)
			startCounterServer(t, tr, addr)
			return addr, nil
		},
		Checkpoint: func() []byte { return encodeVal(41) },
	}
	before := obs.Default.Snapshot().Counters
	s, err := DialSupervised(tr, "restart-0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("counter", "set", int64(41)); err != nil {
		t.Fatal(err)
	}

	// Kill the only incarnation: redial probes fail, the breaker opens, and
	// the restart policy takes over.
	first.srv.Close()
	waitState(t, states, StateBroken)
	waitState(t, states, StateHealthy)

	// The relaunched servant must hold the replayed state, not a cold zero.
	res, err := s.Invoke("counter", "get")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != 41 {
		t.Errorf("value after restart = %d, want 41 (checkpoint replayed)", got)
	}
	mu.Lock()
	r := relaunches
	mu.Unlock()
	if r == 0 {
		t.Error("restart policy never invoked")
	}
	s.mu.Lock()
	got := s.addr
	s.mu.Unlock()
	if got == "restart-0" {
		t.Error("the connection still targets the dead incarnation")
	}
	after := obs.Default.Snapshot().Counters
	if d := after["orb.supervised.restarts"] - before["orb.supervised.restarts"]; d == 0 {
		t.Error("restarts counter did not grow")
	}
	if d := after["orb.supervised.restore_replays"] - before["orb.supervised.restore_replays"]; d == 0 {
		t.Error("restore_replays counter did not grow")
	}
}

func TestRestartColdWithoutCheckpoint(t *testing.T) {
	// No Checkpoint hook: the relaunched servant comes up cold, and no
	// replay is counted — restart still repairs the connection.
	tr := &transport.InProc{}
	first := startCounterServer(t, tr, "restart-cold-0")
	opts, states := fastOpts()
	opts.Restart = &RestartPolicy{
		Relaunch: func(int) (string, error) {
			startCounterServer(t, tr, "restart-cold-1")
			return "restart-cold-1", nil
		},
	}
	before := obs.Default.Snapshot().Counters
	s, err := DialSupervised(tr, "restart-cold-0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("counter", "set", int64(7)); err != nil {
		t.Fatal(err)
	}
	first.srv.Close()
	waitState(t, states, StateBroken)
	waitState(t, states, StateHealthy)
	res, err := s.Invoke("counter", "get")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != 0 {
		t.Errorf("cold restart value = %d, want 0", got)
	}
	after := obs.Default.Snapshot().Counters
	if d := after["orb.supervised.restore_replays"] - before["orb.supervised.restore_replays"]; d != 0 {
		t.Errorf("replay counted without a checkpoint: %d", d)
	}
}

func TestRestartBudgetFallsBackToProbes(t *testing.T) {
	// Every relaunch fails: after MaxRestarts the supervisor must fall back
	// to plain half-open probes of the last address — which succeed once
	// the original server returns.
	tr := &transport.InProc{}
	stop, restart := calcServer(t, tr, "restart-budget")
	var mu sync.Mutex
	attempts := 0
	opts, states := fastOpts()
	opts.Restart = &RestartPolicy{
		MaxRestarts: 2,
		Relaunch: func(int) (string, error) {
			mu.Lock()
			attempts++
			mu.Unlock()
			return "", errors.New("no capacity")
		},
	}
	s, err := DialSupervised(tr, "restart-budget", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop()
	waitState(t, states, StateBroken)
	// Give the budget time to exhaust, then resurrect the original address.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		a := attempts
		mu.Unlock()
		if a >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relaunch attempts = %d, want 2", a)
		}
		time.Sleep(time.Millisecond)
	}
	restart()
	waitState(t, states, StateHealthy)
	mu.Lock()
	a := attempts
	mu.Unlock()
	if a != 2 {
		t.Errorf("relaunch attempts = %d, want exactly MaxRestarts=2", a)
	}
	if _, err := s.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatalf("call after fallback recovery: %v", err)
	}
}

func TestRestartBudgetResetsPerOutage(t *testing.T) {
	// The budget is per outage, not per connection lifetime: a second crash
	// gets a fresh MaxRestarts allowance.
	tr := &transport.InProc{}
	cur := startCounterServer(t, tr, "restart-again-0")
	var mu sync.Mutex
	gen := 0
	var servers []*counterServer
	opts, states := fastOpts()
	opts.Restart = &RestartPolicy{
		MaxRestarts: 1,
		Relaunch: func(int) (string, error) {
			mu.Lock()
			gen++
			addr := fmt.Sprintf("restart-again-%d", gen)
			mu.Unlock()
			next := startCounterServer(t, tr, addr)
			mu.Lock()
			servers = append(servers, next)
			mu.Unlock()
			return addr, nil
		},
	}
	s, err := DialSupervised(tr, "restart-again-0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cur.srv.Close()
	waitState(t, states, StateBroken)
	waitState(t, states, StateHealthy)

	// Second outage: kill the relaunched incarnation.
	mu.Lock()
	second := servers[len(servers)-1]
	mu.Unlock()
	second.srv.Close()
	waitState(t, states, StateBroken)
	waitState(t, states, StateHealthy)
	if _, err := s.Invoke("counter", "get"); err != nil {
		t.Fatalf("call after second restart: %v", err)
	}
	mu.Lock()
	g := gen
	mu.Unlock()
	if g < 2 {
		t.Errorf("relaunches = %d, want one per outage", g)
	}
}

func TestHeartbeatSuppressedWhileBrokerOpen(t *testing.T) {
	tr := &transport.InProc{}
	stop, restart := calcServer(t, tr, "hb-suppress")
	opts, states := fastOpts()
	opts.Heartbeat = 2 * time.Millisecond
	s, err := DialSupervised(tr, "hb-suppress", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("calc", "add", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}

	stop()
	waitState(t, states, StateBroken)
	before := obs.Default.Snapshot().Counters
	// While the circuit stays open, ticks keep firing and every one must be
	// withheld and counted rather than pinging the dead peer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		now := obs.Default.Snapshot().Counters
		if now["orb.supervised.heartbeats_suppressed"]-before["orb.supervised.heartbeats_suppressed"] >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeats_suppressed never grew while broken")
		}
		time.Sleep(time.Millisecond)
	}

	// Recovery ends the suppression: the connection heals and calls flow.
	restart()
	waitState(t, states, StateHealthy)
	if _, err := s.Invoke("calc", "add", 2.0, 2.0); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}
