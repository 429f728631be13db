//go:build linux

package transport

// Crash-liveness tests for the shm transport: a peer process that dies
// holding a mapped ring leaves no in-band close flag, so the survivor's
// only signal is the kernel dropping the dead side's open-file-description
// lock. These tests simulate the crash by tearing down the dead side's
// mapping and file descriptor without the end-flag handshake — what
// process death does (the OFD lock survives a bare close(2) while the
// mmap still references the description, so both must go) — and assert
// blocked operations fail typed (ErrPeerDead, wrapping ErrClosed) instead
// of spinning forever, while a merely slow peer is never misdeclared dead.

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// shmPair dials and accepts one shm connection under dir.
func shmPair(t *testing.T, dir string) (dial, accept Conn) {
	t.Helper()
	ln, err := (SHM{}).Listen(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	cc, ec := acceptAsync(ln)
	dc, err := (SHM{}).Dial(dir)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case accept = <-cc:
	case err := <-ec:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	return dc, accept
}

// crashConn simulates process death of one side: mapping and descriptor
// both go away — releasing the open file description and with it the OFD
// liveness mark — with no end flag ever written. Close's sequence minus
// the in-band myEnd publication.
func crashConn(t *testing.T, c Conn) {
	t.Helper()
	sc, ok := c.(*shmConn)
	if !ok {
		t.Fatalf("not an shm conn: %T", c)
	}
	sc.once.Do(func() {
		sc.sendMu.Lock()
		sc.recvMu.Lock()
		defer sc.sendMu.Unlock()
		defer sc.recvMu.Unlock()
		sc.unmapped = true
		if err := syscall.Munmap(sc.mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
		sc.mem = nil
		if err := sc.f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

func TestSHMPeerDeathUnblocksRecv(t *testing.T) {
	dc, ac := shmPair(t, filepath.Join(t.TempDir(), "ep"))
	defer ac.Close()

	done := make(chan error, 1)
	go func() {
		_, err := ac.Recv()
		done <- err
	}()
	// Let the receiver reach its blocked wait before the crash.
	time.Sleep(20 * time.Millisecond)
	crashConn(t, dc)

	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("Recv after peer death = %v, want ErrPeerDead", err)
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("ErrPeerDead must wrap ErrClosed (retryable classification); got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still blocked after peer death")
	}
}

func TestSHMPeerDeathUnblocksSend(t *testing.T) {
	dc, ac := shmPair(t, filepath.Join(t.TempDir(), "ep"))
	defer dc.Close()

	// A frame larger than the ring forces the sender into the lockstep
	// path, blocked on the dead receiver forever draining nothing.
	big := make([]byte, shmRingSize+4096)
	done := make(chan error, 1)
	go func() { done <- dc.Send(big) }()
	time.Sleep(20 * time.Millisecond)
	crashConn(t, ac)

	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("Send after peer death = %v, want ErrPeerDead", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send still blocked after peer death")
	}
}

func TestSHMSlowPeerNotDeclaredDead(t *testing.T) {
	// A receiver blocked long enough to run many liveness probes must
	// still get the frame when the (alive, just slow) peer finally sends.
	dc, ac := shmPair(t, filepath.Join(t.TempDir(), "ep"))
	defer dc.Close()
	defer ac.Close()

	type res struct {
		f   []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		f, err := ac.Recv()
		done <- res{f, err}
	}()
	// Well past spin, yield, and hundreds of probe intervals.
	time.Sleep(300 * time.Millisecond)
	if err := dc.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("slow peer misdeclared dead: %v", r.err)
		}
		if string(r.f) != "late" {
			t.Fatalf("frame = %q", r.f)
		}
		ReleaseFrame(r.f)
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never completed")
	}
}

// TestSHMLiveMarksHeldFromHandshake probes each side's view of its peer
// the instant Dial or Accept returns. Both liveness marks must already be
// held then: a probe that runs before the peer has locked its byte reads
// a live peer as dead, and a blocked wait probes as soon as it has been
// blocked for shmProbeEvery, which a connection's first Recv can reach.
func TestSHMLiveMarksHeldFromHandshake(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ep")
	ln, err := (SHM{}).Listen(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for i := 0; i < 100; i++ {
		accepted := make(chan error, 1)
		var ac Conn
		go func() {
			c, err := ln.Accept()
			if err == nil {
				ac = c
				if !shmPeerAlive(c.(*shmConn).f, false) {
					err = errors.New("acceptor reads the live dialer as dead")
				}
			}
			accepted <- err
		}()
		dc, err := (SHM{}).Dial(dir)
		if err != nil {
			t.Fatal(err)
		}
		dialerSaw := shmPeerAlive(dc.(*shmConn).f, true)
		aerr := <-accepted
		if ac != nil {
			ac.Close()
		}
		dc.Close()
		if aerr != nil {
			t.Fatalf("connection %d: %v", i, aerr)
		}
		if !dialerSaw {
			t.Fatalf("connection %d: dialer reads the live acceptor as dead", i)
		}
	}
}
