package mpi

// Process-backend lifecycle tests: rendezvous validation and generations,
// rank death surfacing as typed errors, finalize semantics, and the env
// entry point. The conformance suite proves semantic equivalence with the
// goroutine backend; this file proves the parts that only exist across
// processes — joining, leaving, and dying.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

var procAddrSeq int64

// newTestRendezvous starts a rendezvous for the given size on a fresh
// inproc address and returns the scheme-qualified address.
func newTestRendezvous(t *testing.T, size int) (*Rendezvous, string) {
	t.Helper()
	rest := fmt.Sprintf("proc-test-%d", atomic.AddInt64(&procAddrSeq, 1))
	tr, _, err := transport.ForScheme("inproc://x")
	if err != nil {
		t.Fatal(err)
	}
	l, err := tr.Listen(rest)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRendezvous(l, size)
	t.Cleanup(func() { rv.Close() })
	return rv, "inproc://" + rest
}

// joinAll joins n ranks concurrently and returns their comms and procs.
func joinAll(t *testing.T, n int, addr string) ([]*Comm, []*Proc) {
	t.Helper()
	comms := make([]*Comm, n)
	procs := make([]*Proc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], procs[r], errs[r] = JoinConfig(ProcConfig{
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

func TestJoinConfigValidation(t *testing.T) {
	if _, _, err := JoinConfig(ProcConfig{Rendezvous: "inproc://x", Rank: 0, Size: 0}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, _, err := JoinConfig(ProcConfig{Rendezvous: "inproc://x", Rank: 5, Size: 2}); !errors.Is(err, ErrRankRange) {
		t.Errorf("rank 5 of 2 = %v, want ErrRankRange", err)
	}
	if _, _, err := JoinConfig(ProcConfig{Rendezvous: "bogus://x", Rank: 0, Size: 2}); err == nil {
		t.Error("unknown rendezvous scheme accepted")
	}
}

func TestJoinEnvMissing(t *testing.T) {
	t.Setenv(EnvRendezvous, "")
	if _, _, err := Join(); err == nil {
		t.Error("Join without environment succeeded")
	}
}

func TestRendezvousRejectsBadJoins(t *testing.T) {
	_, addr := newTestRendezvous(t, 2)

	// Size mismatch is rejected by the service with a typed rvErr reply.
	_, _, err := JoinConfig(ProcConfig{Rendezvous: addr, Rank: 0, Size: 3, Timeout: 5 * time.Second})
	if err == nil {
		t.Fatal("size-3 join against size-2 rendezvous succeeded")
	}

	// Raw control frames: server-side validation must answer rvErr for a
	// rank outside the world and for a non-join opening frame.
	tr, _, _ := transport.ForScheme("inproc://x")
	rest := addr[len("inproc://"):]
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"rank out of range", appendString(binary.AppendUvarint(binary.AppendUvarint([]byte{rvJoin}, 7), 2), "inproc://nowhere")},
		{"not a join", []byte{rvCtxReq}},
	} {
		c, err := tr.Dial(rest)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(tc.frame); err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		f, err := c.Recv()
		if err != nil || len(f) == 0 || f[0] != rvErr {
			t.Errorf("%s: reply = %v, %v, want rvErr", tc.name, f, err)
		}
		transport.ReleaseFrame(f)
		c.Close()
	}

	// Duplicate rank: the second join of rank 0 is refused, and after a
	// correct rank-1 join the first one still completes the world.
	type joinRes struct {
		comm *Comm
		proc *Proc
		err  error
	}
	first := make(chan joinRes, 1)
	go func() {
		c, p, err := JoinConfig(ProcConfig{Rendezvous: addr, Rank: 0, Size: 2})
		first <- joinRes{c, p, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the first join register
	if _, _, err := JoinConfig(ProcConfig{Rendezvous: addr, Rank: 0, Size: 2, Timeout: 5 * time.Second}); err == nil {
		t.Error("duplicate rank 0 join succeeded")
	}
	c1, p1, err := JoinConfig(ProcConfig{Rendezvous: addr, Rank: 1, Size: 2})
	if err != nil {
		t.Fatalf("rank 1 join: %v", err)
	}
	r0 := <-first
	if r0.err != nil {
		t.Fatalf("rank 0 join after duplicate was refused: %v", r0.err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got, err := r0.comm.AllreduceScalar(1, Sum); err != nil || got != 2 {
			t.Errorf("rank 0 allreduce on formed world = %v, %v", got, err)
		}
		r0.proc.Close()
	}()
	if got, err := c1.AllreduceScalar(1, Sum); err != nil || got != 2 {
		t.Errorf("allreduce on formed world = %v, %v", got, err)
	}
	p1.Close()
	wg.Wait()
}

func TestRendezvousGenerations(t *testing.T) {
	rv, addr := newTestRendezvous(t, 2)
	for gen := uint64(1); gen <= 3; gen++ {
		comms, procs := joinAll(t, 2, addr)
		for r, p := range procs {
			if p.Generation() != gen {
				t.Fatalf("rank %d generation = %d, want %d", r, p.Generation(), gen)
			}
			if p.pw.rank != r || p.pw.size != 2 {
				t.Fatalf("proc identity = (%d,%d)", p.pw.rank, p.pw.size)
			}
		}
		// Derived communicators exercise the cross-generation ctx RPC.
		var wg sync.WaitGroup
		for r, c := range comms {
			wg.Add(1)
			go func(r int, c *Comm) {
				defer wg.Done()
				sub, err := c.Split(0, r)
				if err != nil {
					t.Errorf("gen %d split: %v", gen, err)
					return
				}
				if got, err := sub.AllreduceScalar(float64(r), Sum); err != nil || got != 1 {
					t.Errorf("gen %d split allreduce = %v, %v", gen, got, err)
				}
			}(r, c)
		}
		wg.Wait()
		for _, p := range procs {
			wg.Add(1)
			go func(p *Proc) { defer wg.Done(); p.Close() }(p)
		}
		wg.Wait()
		if g := rv.Generations(); g != gen {
			t.Fatalf("Generations() = %d, want %d", g, gen)
		}
	}
}

func TestProcKillSurfacesRankDeath(t *testing.T) {
	_, addr := newTestRendezvous(t, 3)
	comms, procs := joinAll(t, 3, addr)

	// Everyone synchronizes, then rank 2 dies without the finalize
	// handshake — the crash path, not the Close path.
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := comms[r].Barrier(); err != nil {
				t.Errorf("rank %d barrier: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	procs[2].Kill()

	for _, r := range []int{0, 1} {
		// A blocked receive from the dead rank fails typed instead of
		// hanging.
		_, _, err := comms[r].Recv(2, 1)
		var dead *RankDeadError
		if !errors.As(err, &dead) {
			t.Fatalf("rank %d recv from dead peer = %v, want RankDeadError", r, err)
		}
		if dead.Rank != 2 {
			t.Errorf("dead rank = %d, want 2", dead.Rank)
		}
		// The error unwraps to a connection-level transport failure, the
		// contract orb.Classify's retryable class is built on.
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("rank %d death error %v does not unwrap to transport.ErrClosed", r, err)
		}
		// The whole proc is poisoned: the death is recorded, collectives
		// fail fast, and late death callbacks fire immediately.
		if err := deadErr(procs[r]); err == nil {
			t.Errorf("rank %d recorded no death", r)
		}
		if _, err := comms[r].AllreduceScalar(1, Sum); !errors.As(err, &dead) {
			t.Errorf("rank %d collective after death = %v, want RankDeadError", r, err)
		}
		fired := make(chan int, 1)
		procs[r].OnRankDeath(func(rank int, err error) { fired <- rank })
		select {
		case rank := <-fired:
			if rank != 2 {
				t.Errorf("OnRankDeath rank = %d", rank)
			}
		case <-time.After(time.Second):
			t.Errorf("rank %d OnRankDeath did not fire for a past death", r)
		}
	}
	// Close after a peer death must not hang on the missing bye.
	for _, r := range []int{0, 1} {
		done := make(chan struct{})
		go func(r int) { procs[r].Close(); close(done) }(r)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d Close hung after peer death", r)
		}
	}
}

func TestProcCloseFinalizes(t *testing.T) {
	_, addr := newTestRendezvous(t, 2)
	comms, procs := joinAll(t, 2, addr)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if got, err := comms[r].AllreduceScalar(1, Sum); err != nil || got != 2 {
				t.Errorf("allreduce = %v, %v", got, err)
			}
			// Graceful close: the bye handshake, not a death. Idempotent.
			if err := procs[r].Close(); err != nil {
				t.Errorf("rank %d close: %v", r, err)
			}
			if err := procs[r].Close(); err != nil {
				t.Errorf("rank %d re-close: %v", r, err)
			}
			if err := deadErr(procs[r]); err != nil {
				t.Errorf("rank %d death recorded after clean close = %v", r, err)
			}
			// The communicator is revoked, not dead: operations fail with
			// ErrCommRevoked.
			if err := comms[r].Send(1-r, 1, nil); !errors.Is(err, ErrCommRevoked) {
				t.Errorf("send after close = %v, want ErrCommRevoked", err)
			}
		}(r)
	}
	wg.Wait()
}

func TestRunOverPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic did not propagate out of RunOver")
		}
	}()
	addr := fmt.Sprintf("inproc://panic-%d", atomic.AddInt64(&procAddrSeq, 1))
	_ = RunOver(2, addr, func(c *Comm, _ *Proc) {
		if c.Rank() == 1 {
			panic("rank 1 exploded")
		}
		// Rank 0 blocks on the panicking rank; the kill must unblock it.
		_, _, _ = c.Recv(1, 1)
	})
}

// deadErr reads the rank death a proc recorded, nil before one.
func deadErr(p *Proc) error {
	p.pw.mu.Lock()
	defer p.pw.mu.Unlock()
	return p.pw.deadErr
}
