package transport

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// transports under test; TCP listens on a kernel-assigned port.
func eachTransport(t *testing.T, f func(t *testing.T, tr Transport, addr string)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) { f(t, &InProc{}, "svc") })
	t.Run("tcp", func(t *testing.T) { f(t, TCP{}, "127.0.0.1:0") })
	t.Run("shm", func(t *testing.T) { f(t, SHM{}, filepath.Join(t.TempDir(), "ep")) })
}

func TestEchoRoundTrip(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		done := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				f, err := c.Recv()
				if err != nil {
					done <- err
					return
				}
				if err := c.Send(append([]byte("echo:"), f...)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()

		c, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			msg := []byte(fmt.Sprintf("frame-%d", i))
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if want := append([]byte("echo:"), msg...); !bytes.Equal(got, want) {
				t.Fatalf("got %q, want %q", got, want)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

func TestDialNoListener(t *testing.T) {
	ip := &InProc{}
	if _, err := ip.Dial("nowhere"); !errors.Is(err, ErrNoListener) {
		t.Errorf("err = %v", err)
	}
}

func TestListenDuplicateInProc(t *testing.T) {
	ip := &InProc{}
	l, err := ip.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("err = %v", err)
	}
	l.Close()
	// Address reusable after close.
	if _, err := ip.Listen("a"); err != nil {
		t.Errorf("relisten: %v", err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := make(chan Conn, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		c, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		srv := <-accepted
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
				t.Errorf("recv err = %v, want ErrClosed", err)
			}
		}()
		srv.Close()
		wg.Wait()
	})
}

func TestQueuedFramesSurviveClose(t *testing.T) {
	// Frames already in flight must be deliverable after the sender
	// closes (inproc semantics; TCP guarantees this via the socket).
	ip := &InProc{}
	l, _ := ip.Listen("q")
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Send([]byte("one"))
		c.Send([]byte("two"))
		c.Close()
	}()
	c, err := ip.Dial("q")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one", "two"} {
		f, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %q: %v", want, err)
		}
		if string(f) != want {
			t.Fatalf("got %q, want %q", f, want)
		}
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("final recv err = %v", err)
	}
}

func TestFrameTooBig(t *testing.T) {
	ip := &InProc{}
	l, _ := ip.Listen("big")
	defer l.Close()
	go l.Accept()
	c, err := ip.Dial("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("err = %v", err)
	}
}

func TestAcceptAfterListenerClose(t *testing.T) {
	ip := &InProc{}
	l, _ := ip.Listen("x")
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	// Multiple goroutines sending on one TCP conn must not interleave
	// frames (framing is mutex-protected).
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const senders, frames = 8, 50
	counts := make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			counts <- -1
			return
		}
		n := 0
		for i := 0; i < senders*frames; i++ {
			f, err := c.Recv()
			if err != nil {
				counts <- -1
				return
			}
			if len(f) != 100 {
				counts <- -1
				return
			}
			n++
		}
		counts <- n
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame := make([]byte, 100)
			for i := 0; i < frames; i++ {
				if err := c.Send(frame); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := <-counts; n != senders*frames {
		t.Fatalf("received %d frames", n)
	}
}

func TestInProcDialCloseRace(t *testing.T) {
	// Regression: Dial used to send on the listener backlog without
	// synchronizing against Close closing it — a send on a closed channel
	// panicked the dialer. A dial racing a close must yield ErrNoListener
	// or ErrClosed, never panic.
	for i := 0; i < 100; i++ {
		ip := &InProc{}
		l, err := ip.Listen("race")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c, err := ip.Dial("race")
				switch {
				case err == nil:
					c.Close()
				case errors.Is(err, ErrNoListener), errors.Is(err, ErrClosed):
				default:
					t.Errorf("dial during close: %v", err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			l.Close()
		}()
		close(start)
		wg.Wait()
	}
}

func TestInProcQueuedConnClosedByListenerClose(t *testing.T) {
	// A connection that was queued but never accepted must observe
	// ErrClosed after the listener closes, not hang.
	ip := &InProc{}
	l, err := ip.Listen("orphan")
	if err != nil {
		t.Fatal(err)
	}
	c, err := ip.Dial("orphan")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("recv err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("orphaned dialer hung after listener close")
	}
}

func TestCoalescedMixedSizeSenders(t *testing.T) {
	// Concurrent senders mixing frames below and above the coalescer's
	// zero-copy cutoff must still deliver every frame whole and
	// uncorrupted.
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const senders, frames = 8, 40
	sizes := []int{1, 100, coalesceCutoff, coalesceCutoff + 1, 64 << 10}
	type got struct {
		n   int
		err error
	}
	results := make(chan got, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			results <- got{0, err}
			return
		}
		n := 0
		for i := 0; i < senders*frames; i++ {
			f, err := c.Recv()
			if err != nil {
				results <- got{n, err}
				return
			}
			if len(f) == 0 {
				results <- got{n, fmt.Errorf("empty frame")}
				return
			}
			fill := f[0]
			for _, b := range f {
				if b != fill {
					results <- got{n, fmt.Errorf("corrupt frame: %d != %d", b, fill)}
					return
				}
			}
			ReleaseFrame(f)
			n++
		}
		results <- got{n, nil}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				size := sizes[(s+i)%len(sizes)]
				frame := make([]byte, size)
				fill := byte(s + 1)
				for j := range frame {
					frame[j] = fill
				}
				if err := c.Send(frame); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	r := <-results
	if r.err != nil || r.n != senders*frames {
		t.Fatalf("received %d/%d frames, err = %v", r.n, senders*frames, r.err)
	}
}

func TestSendErrorAfterPeerClose(t *testing.T) {
	// Once the write side fails, subsequent Sends report the sticky error.
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	srv.Close()
	c.Close()
	var sendErr error
	for i := 0; i < 50; i++ {
		if sendErr = c.Send([]byte("x")); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("sends kept succeeding on a closed connection")
	}
	if err := c.Send([]byte("y")); err == nil {
		t.Error("send after sticky error succeeded")
	}
}

// Property: arbitrary byte frames round-trip unchanged through inproc.
func TestFrameFidelityProperty(t *testing.T) {
	ip := &InProc{}
	l, err := ip.Listen("prop")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					f, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(f)
				}
			}()
		}
	}()
	c, err := ip.Dial("prop")
	if err != nil {
		t.Fatal(err)
	}
	f := func(frame []byte) bool {
		if err := c.Send(frame); err != nil {
			return false
		}
		got, err := c.Recv()
		return err == nil && bytes.Equal(got, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushLeaderStress(t *testing.T) {
	// Regression for a leader-election race: flush() used to release the
	// flushing flag after every window while flushLoop kept looping, so a
	// sender that caught wmu during the leader's between-window yield saw
	// !flushing and became a second concurrent leader — racing on the
	// shared iovec scratch and interleaving writev calls on one socket.
	// With the flag owned solely by flushLoop there is exactly one leader
	// per drain. Reproducing the old bug needs sustained sender pressure
	// (so the leader drains for many windows, each yield an election
	// window), a receiver that does nothing but drain (so the TCP buffer
	// never fills and flushes stay short), frames on both sides of the
	// coalesce cutoff, and >=4 Ps; under -race this setup reported the old
	// bug within a few runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const senders, frames = 32, 2000
	type got struct {
		n   int
		err error
	}
	results := make(chan got, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			results <- got{0, err}
			return
		}
		n := 0
		for {
			f, err := c.Recv()
			if err != nil {
				// The client closes the conn once every sender is done;
				// ErrClosed here is the normal end of stream.
				results <- got{n, nil}
				return
			}
			if len(f) != 64 && len(f) != coalesceCutoff+1 {
				results <- got{n, fmt.Errorf("frame of unexpected size %d", len(f))}
				return
			}
			ReleaseFrame(f)
			n++
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			small := make([]byte, 64)
			big := make([]byte, coalesceCutoff+1)
			for i := 0; i < frames; i++ {
				f := small
				if (s+i)%7 == 0 {
					f = big
				}
				if err := c.Send(f); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	c.Close()
	r := <-results
	if r.err != nil || r.n != senders*frames {
		t.Fatalf("received %d/%d frames, err = %v", r.n, senders*frames, r.err)
	}
}

func TestFramePoolSizeClasses(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 64 << 10, 1<<20 + 16, maxPooledFrame} {
		f := grabFrame(n)
		if c := cap(f); len(f) != n || c < n || c < 1<<minFrameShift || c&(c-1) != 0 {
			t.Errorf("grabFrame(%d): len %d cap %d, want a power-of-two class", n, len(f), c)
		}
	}
	if f := grabFrame(maxPooledFrame + 1); cap(f) != maxPooledFrame+1 {
		t.Errorf("frame above the top class: cap %d, want exact", cap(f))
	}
	// A released frame serves the next request of its class, even after a
	// request of another class. sync.Pool may drop any item (the race
	// runtime drops some on purpose), so count reuse over many rounds.
	same := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }
	var smallReused, bulkReused int
	for i := 0; i < 50; i++ {
		small := grabFrame(100)
		ReleaseFrame(small)
		bulk := grabFrame(1<<20 + 16) // a 1 MiB payload plus its header
		ReleaseFrame(bulk)
		if f := grabFrame(100); same(f, small) {
			smallReused++
		}
		if f := grabFrame(1<<20 + 16); same(f, bulk) {
			bulkReused++
		}
	}
	if smallReused == 0 || bulkReused == 0 {
		t.Errorf("in 50 rounds, small frames reused %d times and 1 MiB frames %d times", smallReused, bulkReused)
	}
}
