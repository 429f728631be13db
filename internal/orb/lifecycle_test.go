package orb

// Lifecycle audit tests: every goroutine and pooled resource started by
// the remote path must be released by Close. The audit points are
// Client.Close (stops the demux goroutine), tcpConn.Close (terminates the
// leader flush), Server.Close (drains the dispatch pool), and
// Supervised.Close (stops watcher, redial, and heartbeat goroutines).

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// goroutineBaseline samples the current goroutine count after a settle.
func goroutineBaseline() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// assertGoroutinesReturn waits for the goroutine count to come back to
// (near) base; the slack absorbs runtime-internal goroutines.
func assertGoroutinesReturn(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d at start, %d after close\n%s",
		base, n, buf[:runtime.Stack(buf, true)])
}

// TestLifecycleClientServerChurn opens and closes many client/server pairs
// and asserts the goroutine count returns to baseline: no demux, flush,
// accept, serve, or dispatch goroutine survives its owner.
func TestLifecycleClientServerChurn(t *testing.T) {
	const pairs = 1000
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"inproc", &transport.InProc{}, "churn"},
		{"tcp", transport.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := pairs
			if tc.name == "tcp" && testing.Short() {
				n = 100
			}
			// Warm-up cycle: the first dispatch lazily starts process-wide
			// singletons (the par worker pool) that are not per-connection
			// resources and never shut down; spin them up before baselining.
			{
				l, err := tc.tr.Listen(tc.addr)
				if err != nil {
					t.Fatal(err)
				}
				srv := Serve(oa, l)
				c, err := DialClient(tc.tr, srv.Addr())
				if err != nil {
					srv.Close()
					t.Fatal(err)
				}
				if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
					t.Fatal(err)
				}
				c.Close()
				srv.Close()
			}
			base := goroutineBaseline()
			for i := 0; i < n; i++ {
				l, err := tc.tr.Listen(tc.addr)
				if err != nil {
					t.Fatal(err)
				}
				srv := Serve(oa, l)
				c, err := DialClient(tc.tr, srv.Addr())
				if err != nil {
					srv.Close()
					t.Fatal(err)
				}
				if i%10 == 0 { // exercise the dispatch pool on a sample
					if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
						t.Fatal(err)
					}
				}
				c.Close()
				srv.Close()
			}
			assertGoroutinesReturn(t, base)
		})
	}
}

// TestLifecycleSupervisedChurn opens and closes supervised clients —
// including ones mid-redial and with heartbeats running — and asserts all
// supervision goroutines die with Close.
func TestLifecycleSupervisedChurn(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("sup-churn")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()

	base := goroutineBaseline()
	for i := 0; i < 300; i++ {
		opts := SupervisorOptions{
			Retry:      transport.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond},
			Heartbeat:  2 * time.Millisecond,
			Idempotent: AllIdempotent,
		}
		s, err := DialSupervised(tr, "sup-churn", opts)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			// Close while degraded: the redial loop must stop too.
			s.mu.Lock()
			c := s.cur
			s.mu.Unlock()
			if c != nil {
				c.Close()
			}
		} else if i%3 == 1 {
			if _, err := s.Invoke("calc", "add", 1.0, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
	assertGoroutinesReturn(t, base)
}

// TestLifecycleServerDrainsDispatch confirms Server.Close waits for
// in-flight dispatches instead of abandoning them, and delivers their
// replies.
func TestLifecycleServerDrainsDispatch(t *testing.T) {
	oa := NewObjectAdapter()
	impl := &slowImpl{release: make(chan struct{}), started: make(chan struct{}, 1)}
	if err := oa.Register("slow", slowInfo(t), impl); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("drain")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	c, err := DialClient(tr, "drain")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", "wait", 1.0)
		done <- err
	}()
	<-impl.started // the dispatch is in flight

	stopped := make(chan struct{})
	go func() {
		srv.Close()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Close returned while a dispatch was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(impl.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the dispatch finished")
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight call during Close: %v", err)
	}
}

// TestLateReplyNeverReachesRecycledChannel is the regression test for the
// completion-channel recycling protocol: a reply that arrives after its
// call was forgotten (timeout) must be discarded, never delivered to a
// channel that a new call has since checked out of the pool. Interleaved
// tiny-deadline and normal calls against a slow servant maximize the
// chance of a protocol hole delivering a stale tag to the wrong caller.
func TestLateReplyNeverReachesRecycledChannel(t *testing.T) {
	oa := NewObjectAdapter()
	impl := &slowImpl{release: make(chan struct{}), started: make(chan struct{}, 1024)}
	if err := oa.Register("slow", slowInfo(t), impl); err != nil {
		t.Fatal(err)
	}
	close(impl.release) // wait() returns immediately; latency comes from load
	eachORBTransport(t, oa, func(t *testing.T, _ *Server, c *Client) {
		const goroutines, rounds = 8, 200
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				for i := 0; i < rounds; i++ {
					tag := float64(g*rounds + i)
					if i%2 == 0 {
						// A deadline so small most calls are abandoned with
						// the reply still in flight.
						ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
						res, err := c.InvokeContext(ctx, "slow", "wait", tag)
						cancel()
						if err == nil && res[0].(float64) != tag {
							errs <- fmt.Errorf("tiny-deadline call got tag %v, want %v", res[0], tag)
							return
						}
					} else {
						res, err := c.Invoke("slow", "wait", tag)
						if err != nil {
							errs <- fmt.Errorf("normal call: %w", err)
							return
						}
						if res[0].(float64) != tag {
							errs <- fmt.Errorf("call got tag %v, want %v — a late reply "+
								"reached a recycled channel", res[0], tag)
							return
						}
					}
				}
				errs <- nil
			}(g)
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		// Give stragglers (replies to forgotten calls) time to drain, then
		// confirm the pending-call table is empty: nothing leaked.
		deadline := time.Now().Add(2 * time.Second)
		for {
			c.mu.Lock()
			n := len(c.calls)
			c.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d calls still pending after all callers returned", n)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
