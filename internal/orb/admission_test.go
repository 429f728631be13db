package orb

// Tests for the serving-tier hardening: graceful drain on Close, typed
// retryable overload shedding on queue depth, and the supervised
// client's backoff-without-redial on overload.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// gateServer serves a handler "gate" with a blockable method:
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
	oa.Handle("gate", handler)
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
