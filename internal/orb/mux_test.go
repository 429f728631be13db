package orb

// Tests for the multiplexed remote path: many concurrent in-flight calls
// on one connection, out-of-order completion, cancellation, and error
// propagation on connection loss.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sidl"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

// slowImpl is a servant whose wait method blocks until released, so tests
// can hold a call in flight deterministically.
type slowImpl struct {
	release chan struct{}
	started chan struct{}
}

func (s *slowImpl) Wait(tag float64) float64 {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return tag
}

func slowInfo(t testing.TB) *sreflect.TypeInfo {
	t.Helper()
	f, err := sidl.Parse(`package tmux { interface Slow { double wait(in double tag); } }`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range sreflect.FromTable(tbl) {
		if ti.QName == "tmux.Slow" {
			return ti
		}
	}
	t.Fatal("tmux.Slow missing")
	return nil
}

// eachORBTransport runs f against a served adapter over both transports.
func eachORBTransport(t *testing.T, oa *ObjectAdapter, f func(t *testing.T, srv *Server, c *Client)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		tr := &transport.InProc{}
		l, err := tr.Listen("mux")
		if err != nil {
			t.Fatal(err)
		}
		srv := Serve(oa, l)
		defer srv.Close()
		c, err := DialClient(tr, "mux")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		f(t, srv, c)
	})
	t.Run("tcp", func(t *testing.T) {
		l, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := Serve(oa, l)
		defer srv.Close()
		c, err := DialClient(transport.TCP{}, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		f(t, srv, c)
	})
}

func TestClientConcurrentInvokes(t *testing.T) {
	// 16 goroutines share one client and one connection; every call must
	// see exactly its own reply.
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	eachORBTransport(t, oa, func(t *testing.T, _ *Server, c *Client) {
		const callers, calls = 16, 50
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					a, b := float64(g), float64(i)
					res, err := c.Invoke("calc", "add", a, b)
					if err != nil {
						errs <- fmt.Errorf("caller %d call %d: %w", g, i, err)
						return
					}
					if got := res[0].(float64); got != a+b {
						errs <- fmt.Errorf("caller %d call %d: got %v, want %v", g, i, got, a+b)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

func TestClientPipelinesAroundSlowCall(t *testing.T) {
	// A blocked in-flight call must not serialize the connection: a fast
	// call issued afterwards completes while the slow one is still held.
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	eachORBTransport(t, oa, func(t *testing.T, _ *Server, c *Client) {
		// A fresh servant per transport: Register overwrites the key, so
		// each subtest gets its own release channel (sharing one across
		// subtests would race rearming it against late servant reads).
		slow := &slowImpl{release: make(chan struct{}), started: make(chan struct{}, 1)}
		if err := oa.Register("slow", slowInfo(t), slow); err != nil {
			t.Fatal(err)
		}
		slowDone := make(chan error, 1)
		go func() {
			res, err := c.Invoke("slow", "wait", 7.0)
			if err == nil && res[0].(float64) != 7 {
				err = fmt.Errorf("slow result = %v", res)
			}
			slowDone <- err
		}()
		select {
		case <-slow.started:
		case <-time.After(5 * time.Second):
			t.Fatal("slow call never reached the servant")
		}
		// The slow call is now executing server-side and its reply is
		// pending. A fast call on the same connection must overtake it.
		fastDone := make(chan error, 1)
		go func() {
			_, err := c.Invoke("calc", "add", 1.0, 2.0)
			fastDone <- err
		}()
		select {
		case err := <-fastDone:
			if err != nil {
				t.Fatalf("fast call: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("fast call blocked behind slow in-flight call")
		}
		close(slow.release)
		if err := <-slowDone; err != nil {
			t.Fatalf("slow call: %v", err)
		}
	})
}

func TestInvokeContextCancel(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	eachORBTransport(t, oa, func(t *testing.T, _ *Server, c *Client) {
		slow := &slowImpl{release: make(chan struct{}), started: make(chan struct{}, 1)}
		if err := oa.Register("slow", slowInfo(t), slow); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := c.InvokeContext(ctx, "slow", "wait", 1.0); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		// The abandoned call must not leak a pending entry, and the
		// client stays usable: the late reply is discarded by the demux.
		c.mu.Lock()
		pending := len(c.calls)
		c.mu.Unlock()
		if pending != 0 {
			t.Errorf("%d pending calls after cancellation", pending)
		}
		close(slow.release)
		if res, err := c.Invoke("calc", "add", 2.0, 3.0); err != nil || res[0].(float64) != 5 {
			t.Errorf("post-cancel invoke: %v, %v", res, err)
		}
	})
}

func TestConnectionLossFailsPendingCalls(t *testing.T) {
	slow := &slowImpl{release: make(chan struct{}), started: make(chan struct{}, 1)}
	oa := NewObjectAdapter()
	if err := oa.Register("slow", slowInfo(t), slow); err != nil {
		t.Fatal(err)
	}
	tr := transport.NewFaulty(&transport.InProc{}, transport.Faults{})
	l, err := tr.Listen("loss")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	c, err := DialClient(tr, "loss")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pending := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", "wait", 1.0)
		pending <- err
	}()
	select {
	case <-slow.started:
	case <-time.After(5 * time.Second):
		t.Fatal("call never reached the servant")
	}
	// Abrupt death while the call is still executing: no reply can win.
	tr.SeverAll()
	defer close(slow.release)
	select {
	case err := <-pending:
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("pending call err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call did not observe connection loss")
	}
	// After the demux has died every new call fails fast.
	if _, err := c.Invoke("slow", "wait", 2.0); err == nil {
		t.Error("invoke after connection loss succeeded")
	}
}

func TestClientStressParallelMixedCalls(t *testing.T) {
	// Race-detector stress: concurrent two-way and oneway traffic over one
	// multiplexed connection, with payloads spanning the coalescer's
	// zero-copy cutoff.
	oa := NewObjectAdapter()
	obs := &observer{}
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	if err := oa.Register("mon", observerInfo(t), obs); err != nil {
		t.Fatal(err)
	}
	eachORBTransport(t, oa, func(t *testing.T, _ *Server, c *Client) {
		big := make([]float64, 2048) // 16 KiB payload: beyond coalesceCutoff
		for i := range big {
			big[i] = 1
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if g%2 == 0 {
						res, err := c.Invoke("calc", "sum", big)
						if err != nil || res[0].(float64) != float64(len(big)) {
							t.Errorf("sum: %v, %v", res, err)
							return
						}
					} else {
						if _, err := c.Invoke("calc", "greet", "w"); err != nil {
							t.Errorf("greet: %v", err)
							return
						}
						if err := c.InvokeOneway("mon", "observe", int32(i), []float64{1}); err != nil {
							t.Errorf("oneway: %v", err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
