package orb

// Tests for the serving-tier hardening: graceful drain on Close, typed
// retryable overload shedding on queue depth, the supervised
// client's backoff-without-redial on overload, and the sharded listener
// group with its rendezvous dial.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// gateServer serves a dynamic servant "gate" with a blockable method:
// wait() parks on release after signalling entered, ping() answers
// immediately, nap() sleeps 2ms.
func gateServer(t *testing.T, opts ServeOptions) (srv *Server, entered chan struct{}, release chan struct{}) {
	t.Helper()
	oa := NewObjectAdapter()
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	handler := func(method string, args []any, reply *Encoder) error {
		switch method {
		case "wait":
			entered <- struct{}{}
			<-release
			reply.Encode(int32(1)) //nolint:errcheck
			return nil
		case "ping":
			reply.Encode(int32(0)) //nolint:errcheck
			return nil
		case "nap":
			time.Sleep(2 * time.Millisecond)
			reply.Encode(int32(2)) //nolint:errcheck
			return nil
		}
		return errors.New("no such method: " + method)
	}
	oa.RegisterDynamic("gate", handler)
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ServeWith(oa, l, opts), entered, release
}

// TestGracefulCloseDrains is the drain regression test: a call in flight
// when Close begins must complete with its real reply (not ErrClosed),
// while requests arriving during the drain are shed with the typed
// retryable overload error.
func TestGracefulCloseDrains(t *testing.T) {
	srv, entered, release := gateServer(t, ServeOptions{})
	c, err := DialClient(transport.TCP{}, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		res []any
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		res, err := c.Invoke("gate", "wait")
		inflight <- result{res, err}
	}()
	<-entered // the call is inside the handler

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()

	// Once the drain has begun, new requests on the live connection must
	// be refused with the typed overload error rather than executed or
	// torn off.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("drain never started shedding")
		}
		_, err := c.Invoke("gate", "ping")
		if err == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if !IsOverloaded(err) {
			t.Fatalf("drain-time request failed with %v, want overload shed", err)
		}
		if Classify(err) != ClassRetryable {
			t.Fatalf("Classify(drain shed) = %v, want retryable", Classify(err))
		}
		break
	}

	close(release)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight call during graceful Close: %v", r.err)
	}
	if r.res[0].(int32) != 1 {
		t.Fatalf("in-flight reply = %v", r.res)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}
}

// TestOverloadShedTyped saturates a MaxInflight=1 server and checks the
// excess is refused before execution with errors that are ErrOverloaded
// and classified retryable.
func TestOverloadShedTyped(t *testing.T) {
	srv, entered, release := gateServer(t, ServeOptions{MaxInflight: 1})
	defer srv.Close()

	c0, err := DialClient(transport.TCP{}, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	hold := make(chan error, 1)
	go func() {
		_, err := c0.Invoke("gate", "wait")
		hold <- err
	}()
	<-entered // inflight pinned at 1

	const n = 6
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialClient(transport.TCP{}, srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Invoke("gate", "ping")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	shed := 0
	for err := range errs {
		if err == nil {
			t.Fatal("request admitted past MaxInflight=1 while a call was in flight")
		}
		if !IsOverloaded(err) {
			t.Fatalf("shed error = %v, want ErrOverloaded", err)
		}
		if Classify(err) != ClassRetryable {
			t.Fatalf("Classify(shed) = %v, want retryable", Classify(err))
		}
		if !errors.Is(err, ErrRemote) && !strings.Contains(err.Error(), overloadedMsg) {
			t.Fatalf("shed error lost its typed message: %v", err)
		}
		shed++
	}
	if shed != n {
		t.Fatalf("shed %d of %d", shed, n)
	}
	close(release)
	if err := <-hold; err != nil {
		t.Fatalf("held call: %v", err)
	}
}

// TestSupervisedBacksOffOnOverload drives concurrent supervised clients
// into a MaxInflight=1 server: every call must eventually succeed through
// retry, the overload-backoff counter must grow, and the redial counter
// must not — shedding is a payload-level refusal, not a connection fault,
// so the supervisor keeps its connection.
func TestSupervisedBacksOffOnOverload(t *testing.T) {
	srv, _, _ := gateServer(t, ServeOptions{MaxInflight: 1})
	defer srv.Close()

	opts, _ := fastOpts()
	opts.MaxAttempts = 12
	opts.Retry.Cap = 10 * time.Millisecond
	const clients = 3
	sups := make([]*Supervised, clients)
	for i := range sups {
		s, err := DialSupervised(transport.TCP{}, srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sups[i] = s
	}

	before := obs.Default.Snapshot().Counters
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for _, s := range sups {
		wg.Add(1)
		go func(s *Supervised) {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for done := 0; done < 5; {
				if time.Now().After(deadline) {
					errs <- errors.New("timed out retrying through overload")
					return
				}
				_, err := s.Invoke("gate", "nap")
				if err == nil {
					done++
					continue
				}
				if !IsOverloaded(err) {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters
	if got := after["orb.supervised.overload_backoffs"] - before["orb.supervised.overload_backoffs"]; got == 0 {
		t.Fatal("overload_backoffs counter did not grow under contention")
	}
	if got := after["orb.supervised.redials"] - before["orb.supervised.redials"]; got != 0 {
		t.Fatalf("supervisor redialed %d times on overload; shed must not drop the connection", got)
	}
	if got := after["orb.server.shed.queue_full"] - before["orb.server.shed.queue_full"]; got == 0 {
		t.Fatal("server shed counter did not grow")
	}
}

// TestPickShardSpread checks the rendezvous dial spreads successive picks
// over the whole shard list and passes single addresses through.
func TestPickShardSpread(t *testing.T) {
	if got := PickShard("tcp://one:1"); got != "tcp://one:1" {
		t.Fatalf("single address rewritten to %q", got)
	}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[PickShard("a,b,c")]++
	}
	if len(counts) != 3 {
		t.Fatalf("picks landed on %d shards, want 3: %v", len(counts), counts)
	}
	for shard, n := range counts {
		if n < 30 { // uniform would be 100; catch gross skew only
			t.Fatalf("shard %q picked %d of 300", shard, n)
		}
	}
}

// TestServeShards runs a sharded listener group end to end: N listeners,
// a comma-joined address, and rendezvous dials that all reach a working
// servant.
func TestServeShards(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	pool, err := ServeShards(oa, "tcp://127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	addr := pool.Addr()
	if got := len(strings.Split(addr, ",")); got != 3 {
		t.Fatalf("pool addr %q does not list 3 shards", addr)
	}
	for i := 0; i < 12; i++ {
		c, err := DialAddr(addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		res, err := c.Invoke("calc", "add", 2.0, float64(i))
		c.Close()
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if res[0].(float64) != float64(2+i) {
			t.Fatalf("add = %v", res)
		}
	}
}
