package orb

// Tests for the supervised client: reconnect with backoff, idempotent
// retry, circuit breaking, heartbeat detection of silent partitions, and
// the error taxonomy.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// fastOpts returns supervisor options tuned for test speed, streaming state
// transitions into the returned channel.
func fastOpts() (SupervisorOptions, <-chan ConnState) {
	states := make(chan ConnState, 64)
	return SupervisorOptions{
		ConnectTimeout:   2 * time.Second,
		Retry:            transport.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond},
		MaxAttempts:      6,
		BreakerThreshold: 3,
		Idempotent:       AllIdempotent,
		OnState: func(s ConnState, _ error) {
			select {
			case states <- s:
			default:
			}
		},
	}, states
}

func waitState(t *testing.T, states <-chan ConnState, want ConnState) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case s := <-states:
			if s == want {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for state %v", want)
		}
	}
}

// calcServer serves a calc servant on an InProc transport and returns a
// stop function and a restart function that brings it back on the same
// address after stop.
func calcServer(t *testing.T, tr transport.Transport, addr string) (stop func(), restart func()) {
	t.Helper()
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	var srv *Server
	start := func() {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		srv = Serve(oa, l)
	}
	start()
	return func() { srv.Close() }, start
}

func TestSupervisedHappyPath(t *testing.T) {
	tr := &transport.InProc{}
	stop, _ := calcServer(t, tr, "sup-happy")
	defer stop()
	opts, _ := fastOpts()
	s, err := DialSupervised(tr, "sup-happy", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Invoke("calc", "add", 2.0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 5 {
		t.Errorf("add = %v", res)
	}
	if res, err := s.Invoke("calc", "greet", "world"); err != nil || res[0].(string) != "hello world" {
		t.Errorf("greet = %v, %v", res, err)
	}
	if got := stateOf(s); got != StateHealthy {
		t.Errorf("state = %v, want healthy", got)
	}
}

// lateTransport fails the first `fails` Dial attempts with ErrNoListener,
// then delegates — a deterministic stand-in for "the server comes up while
// the client is still dialing", with no wall-clock dependence.
type lateTransport struct {
	transport.Transport
	mu    sync.Mutex
	fails int
}

func (l *lateTransport) Dial(addr string) (transport.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, transport.ErrNoListener
	}
	l.mu.Unlock()
	return l.Transport.Dial(addr)
}

func TestSupervisedDialRetriesUntilServerUp(t *testing.T) {
	// The first dials fail as if the server were not yet up; the initial
	// dial loop must absorb the failures within ConnectTimeout.
	inner := &transport.InProc{}
	stop, _ := calcServer(t, inner, "sup-late")
	defer stop()
	tr := &lateTransport{Transport: inner, fails: 3}
	opts, _ := fastOpts()
	s, err := DialSupervised(tr, "sup-late", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("calc", "add", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisedDialFailsFastOnBadAddress: only "nothing listening yet" is
// worth retrying at connect time. A malformed address fails on the first
// dial instead of burning the whole ConnectTimeout.
func TestSupervisedDialFailsFastOnBadAddress(t *testing.T) {
	opts, _ := fastOpts()
	opts.ConnectTimeout = 5 * time.Second
	start := time.Now()
	if _, err := DialSupervised(transport.TCP{}, "not a host port", opts); err == nil {
		t.Fatal("dial of a malformed address succeeded")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("malformed address failed after %v, want < 500ms", d)
	}
}

func TestSupervisedReconnectAfterSever(t *testing.T) {
	inner := &transport.InProc{}
	tr := transport.NewFaulty(inner, transport.Faults{Seed: 7})
	stop, _ := calcServer(t, tr, "sup-sever")
	defer stop()
	opts, states := fastOpts()
	s, err := DialSupervised(tr, "sup-sever", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	tr.SeverAll() // crash every live connection
	waitState(t, states, StateDegraded)
	// The idempotent call rides out the reconnect transparently.
	res, err := s.Invoke("calc", "add", 4.0, 5.0)
	if err != nil {
		t.Fatalf("post-sever call: %v", err)
	}
	if res[0].(float64) != 9 {
		t.Errorf("add = %v", res)
	}
	waitState(t, states, StateHealthy)
}

func TestSupervisedCircuitBreaker(t *testing.T) {
	tr := &transport.InProc{}
	stop, restart := calcServer(t, tr, "sup-breaker")
	opts, states := fastOpts()
	s, err := DialSupervised(tr, "sup-breaker", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("calc", "add", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	stop() // server gone: redials fail, breaker opens after the threshold
	waitState(t, states, StateBroken)
	// Open circuit: calls are shed immediately with a typed error.
	_, err = s.Invoke("calc", "add", 1.0, 1.0)
	if err == nil {
		t.Fatal("call on open circuit succeeded")
	}
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CallError, got %T: %v", err, err)
	}
	if ce.Class != ClassRetryable && ce.Class != ClassTimeout {
		t.Errorf("open-circuit class = %v", ce.Class)
	}
	restart() // half-open probe should now succeed
	waitState(t, states, StateHealthy)
	defer stop()
	res, err := s.Invoke("calc", "add", 20.0, 22.0)
	if err != nil {
		t.Fatalf("post-restore call: %v", err)
	}
	if res[0].(float64) != 42 {
		t.Errorf("add = %v", res)
	}
}

func TestSupervisedNonIdempotentFailsFast(t *testing.T) {
	tr := &transport.InProc{}
	stop, _ := calcServer(t, tr, "sup-nonidem")
	opts, states := fastOpts()
	opts.Idempotent = func(m string) bool { return m == "sum" } // add is NOT idempotent here
	s, err := DialSupervised(tr, "sup-nonidem", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop()
	// Let the watcher notice the death so the first attempt fails at
	// acquire rather than mid-call.
	waitState(t, states, StateDegraded)
	retries0 := cSupRetries.Value()
	_, err = s.Invoke("calc", "add", 1.0, 1.0)
	if err == nil {
		t.Fatal("call with dead server succeeded")
	}
	if Classify(err) == ClassFatal {
		t.Errorf("connection loss classified fatal: %v", err)
	}
	// One attempt, no retry loop: the supervisor retry counter must not
	// move for a non-idempotent method.
	if got := cSupRetries.Value(); got != retries0 {
		t.Errorf("non-idempotent call retried %d times", got-retries0)
	}
}

func TestSupervisedFatalNotRetried(t *testing.T) {
	tr := &transport.InProc{}
	stop, _ := calcServer(t, tr, "sup-fatal")
	defer stop()
	opts, _ := fastOpts()
	s, err := DialSupervised(tr, "sup-fatal", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Unknown object: a remote application-level error. It must surface as
	// Fatal immediately and must not tear down the healthy connection.
	_, err = s.Invoke("nosuch", "add", 1.0, 1.0)
	if err == nil {
		t.Fatal("unknown object succeeded")
	}
	if got := Classify(err); got != ClassFatal {
		t.Errorf("class = %v, want fatal (%v)", got, err)
	}
	if got := stateOf(s); got != StateHealthy {
		t.Errorf("state after app error = %v, want healthy", got)
	}
	if _, err := s.Invoke("calc", "add", 1.0, 1.0); err != nil {
		t.Errorf("connection unusable after app error: %v", err)
	}
}

func TestSupervisedHeartbeatDetectsBlackhole(t *testing.T) {
	inner := &transport.InProc{}
	tr := transport.NewFaulty(inner, transport.Faults{Seed: 11})
	stop, _ := calcServer(t, tr, "sup-hb")
	defer stop()
	opts, states := fastOpts()
	opts.Heartbeat = 10 * time.Millisecond
	s, err := DialSupervised(tr, "sup-hb", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Invoke("calc", "add", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	// Silent partition: no reads, no close notification. Only the
	// heartbeat's write can notice.
	tr.BlackholeAll()
	waitState(t, states, StateDegraded)
	waitState(t, states, StateHealthy)
	if _, err := s.Invoke("calc", "add", 2.0, 2.0); err != nil {
		t.Fatalf("post-blackhole call: %v", err)
	}
}

func TestSupervisedCallTimeoutRecoversDroppedFrame(t *testing.T) {
	inner := &transport.InProc{}
	tr := transport.NewFaulty(inner, transport.Faults{Seed: 3})
	stop, _ := calcServer(t, tr, "sup-drop")
	defer stop()
	opts, _ := fastOpts()
	opts.CallTimeout = 25 * time.Millisecond
	s, err := DialSupervised(tr, "sup-drop", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Drop everything; the in-flight attempt hangs until CallTimeout.
	tr.SetFaults(transport.Faults{DropProb: 1})
	healed := time.AfterFunc(40*time.Millisecond, func() {
		tr.SetFaults(transport.Faults{})
	})
	defer healed.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := s.InvokeContext(ctx, "calc", "add", 3.0, 4.0)
	if err != nil {
		t.Fatalf("call across dropped frames: %v", err)
	}
	if res[0].(float64) != 7 {
		t.Errorf("add = %v", res)
	}
}

func TestSupervisedCloseFailsCalls(t *testing.T) {
	tr := &transport.InProc{}
	stop, _ := calcServer(t, tr, "sup-close")
	defer stop()
	opts, _ := fastOpts()
	s, err := DialSupervised(tr, "sup-close", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	_, err = s.Invoke("calc", "add", 1.0, 1.0)
	if !errors.Is(err, ErrSupervisorClosed) {
		t.Errorf("call after Close = %v, want ErrSupervisorClosed", err)
	}
	if got := Classify(err); got != ClassFatal {
		t.Errorf("closed class = %v, want fatal", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{transport.ErrClosed, ClassRetryable},
		{transport.ErrNoListener, ClassRetryable},
		{ErrCircuitOpen, ClassRetryable},
		{context.DeadlineExceeded, ClassTimeout},
		{context.Canceled, ClassTimeout},
		{ErrRemote, ClassFatal},
		{ErrNoObject, ClassFatal},
		{ErrBadReply, ClassFatal},
		{errors.New("anything else"), ClassFatal},
		{&CallError{Class: ClassTimeout, Err: transport.ErrClosed}, ClassTimeout},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// classed is idempotent: it never double-wraps.
	inner := classed(ClassRetryable, transport.ErrClosed)
	if again := classed(ClassFatal, inner); again != inner {
		t.Error("classed re-wrapped an existing CallError")
	}
	// CallError unwraps to its cause.
	if !errors.Is(inner, transport.ErrClosed) {
		t.Error("CallError does not unwrap to its cause")
	}
}

// stateOf reads a supervised connection's health.
func stateOf(s *Supervised) ConnState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// TestHeartbeatIsNotAnError dispatches idle-connection pings the way a
// server's read loop does — oneway, the first untraced and the rest
// traced — and requires every
// ping.errors.* counter to stay put and no span to carry an error: a
// heartbeat is a successful call on a healthy server.
func TestHeartbeatIsNotAnError(t *testing.T) {
	oa := NewObjectAdapter()
	red := serverRED(pingMethod)
	var errs0 [3]uint64
	for c := range red.errs {
		errs0[c] = red.errs[c].Value()
	}
	calls0 := red.calls.Value()
	obs.Tracer.SetEnabled(true)
	defer obs.Tracer.SetEnabled(false)
	const n = 5
	for i := 0; i < n; i++ {
		req, err := encodeRequest(onewayID, uint64(i), pingKey, pingMethod, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep := oa.dispatchBody(req.Bytes()[frameHeader:], true, uint64(i), 0); rep != nil {
			t.Fatal("oneway ping produced a reply")
		}
		PutEncoder(req)
	}
	if got := red.calls.Value() - calls0; got != n {
		t.Fatalf("ping calls +%d, want +%d", got, n)
	}
	for c := range red.errs {
		if got := red.errs[c].Value(); got != errs0[c] {
			t.Errorf("ping.errors.%s %d -> %d", Class(c), errs0[c], got)
		}
	}
	for _, s := range obs.Tracer.Spans() {
		if s.Method == pingMethod && s.Err != "" {
			t.Errorf("ping span carries an error: %+v", s)
		}
	}
}
