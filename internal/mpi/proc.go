package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Per-rank observability counters for the process backend. Each OS process
// owns its registry, so these are naturally per-rank figures.
var (
	cProcSendFrames = obs.NewCounter("mpi.proc.send_frames")
	cProcSendBytes  = obs.NewCounter("mpi.proc.send_bytes")
	cProcRecvFrames = obs.NewCounter("mpi.proc.recv_frames")
	cProcRecvBytes  = obs.NewCounter("mpi.proc.recv_bytes")
	cProcSelfSends  = obs.NewCounter("mpi.proc.self_sends")
	cProcRankDeaths = obs.NewCounter("mpi.proc.rank_deaths")
	cProcCtxAllocs  = obs.NewCounter("mpi.proc.ctx_allocs")
	cProcJoins      = obs.NewCounter("mpi.proc.joins")
)

// procWorld is the process backend's engine: one OS process's membership
// in a cohort. Peers are reached over a full mesh of transport
// connections; incoming frames are demultiplexed into the same mailbox
// structure the goroutine backend uses, so matching semantics (FIFO per
// (source, tag), wildcards, non-overtaking) are identical by construction.
type procWorld struct {
	rank, size int
	gen        uint64
	box        *mailbox
	peers      []transport.Conn // by world rank; nil at self
	listener   transport.Listener

	ctlMu sync.Mutex // serializes allocCtx round trips
	ctl   transport.Conn

	mu       sync.Mutex
	closing  bool
	byeSeen  []bool
	deathFns []func(rank int, err error)
	deadErr  error
	byeCond  *sync.Cond

	loopWG sync.WaitGroup
}

// writeDrainer matches the TCP coalescer's write-side barrier; other
// backends complete sends synchronously.
type writeDrainer interface{ DrainWrites() }

// send encodes e into a pooled frame for a peer — the frame is the copy —
// or clones the payload into this rank's own mailbox for a self-send.
func (p *procWorld) send(dest int, e envelope) error {
	if dest == p.rank {
		cProcSelfSends.Inc()
		e.payload = clone(e.payload)
		return p.box.put(e)
	}
	conn := p.peers[dest]
	bufp := wireBufs.Get().(*[]byte)
	buf := encodeMsg((*bufp)[:0], e)
	err := conn.Send(buf)
	*bufp = buf[:0]
	wireBufs.Put(bufp)
	if err != nil {
		p.mu.Lock()
		closing, bye := p.closing, p.byeSeen[dest]
		p.mu.Unlock()
		if closing || bye {
			return ErrCommRevoked
		}
		return &RankDeadError{Rank: dest, Err: err}
	}
	cProcSendFrames.Inc()
	cProcSendBytes.Add(uint64(len(buf)))
	return nil
}

func (p *procWorld) recv(source, efftag int) (envelope, error) {
	return p.box.take(source, efftag)
}

// allocCtx asks the rendezvous service for a globally unique communicator
// context: Split may run concurrently on disjoint subcommunicators whose
// leaders are different processes, so no local counter can be safe.
func (p *procWorld) allocCtx() (int, error) {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if err := p.ctl.Send([]byte{rvCtxReq}); err != nil {
		return 0, fmt.Errorf("mpi: ctx allocation: %w", err)
	}
	f, err := p.ctl.Recv()
	if err != nil {
		return 0, fmt.Errorf("mpi: ctx allocation: %w", err)
	}
	defer transport.ReleaseFrame(f)
	if len(f) < 2 || f[0] != rvCtxRep {
		return 0, fmt.Errorf("%w: bad ctx reply", ErrWire)
	}
	n, m := binary.Uvarint(f[1:])
	if m <= 0 {
		return 0, fmt.Errorf("%w: truncated ctx reply", ErrWire)
	}
	cProcCtxAllocs.Inc()
	return int(n) * ctxStride, nil
}

// recvLoop demultiplexes one peer connection into the mailbox. A broken
// connection without the bye handshake is a rank death: the mailbox is
// poisoned with a typed RankDeadError so every blocked and future receive
// on this rank — point-to-point or mid-collective — fails fast.
func (p *procWorld) recvLoop(peer int, conn transport.Conn) {
	defer p.loopWG.Done()
	for {
		f, err := conn.Recv()
		if err != nil {
			p.peerGone(peer, err)
			return
		}
		if len(f) == 0 {
			transport.ReleaseFrame(f)
			p.rankDied(peer, fmt.Errorf("%w: empty frame", ErrWire))
			return
		}
		kind := f[0]
		switch kind {
		case kMsg:
			e, derr := decodeMsg(f[1:])
			cProcRecvFrames.Inc()
			cProcRecvBytes.Add(uint64(len(f)))
			transport.ReleaseFrame(f)
			if derr != nil {
				p.rankDied(peer, derr)
				return
			}
			// A put error means our own box is poisoned; the loop keeps
			// draining so the peer's finalize bye is still observed.
			_ = p.box.put(e)
		case kBye:
			transport.ReleaseFrame(f)
			p.markBye(peer)
			// Keep reading: the conn stays open until the peer closes it,
			// and the close after bye must not count as a death.
			if _, err := conn.Recv(); err != nil {
				return
			}
			p.rankDied(peer, fmt.Errorf("%w: traffic after bye", ErrWire))
			return
		default:
			transport.ReleaseFrame(f)
			p.rankDied(peer, fmt.Errorf("%w: unknown frame kind %d", ErrWire, kind))
			return
		}
	}
}

// peerGone classifies a receive error: expected during finalize (peer sent
// bye, or we are closing), a death otherwise.
func (p *procWorld) peerGone(peer int, err error) {
	p.mu.Lock()
	expected := p.closing || p.byeSeen[peer]
	p.mu.Unlock()
	if !expected {
		p.rankDied(peer, err)
	}
}

// rankDied poisons the world with a typed error and notifies watchers.
// The first death wins; subsequent ones are recorded only as counters.
func (p *procWorld) rankDied(peer int, cause error) {
	err := &RankDeadError{Rank: peer, Err: cause}
	cProcRankDeaths.Inc()
	p.mu.Lock()
	first := p.deadErr == nil
	if first {
		p.deadErr = err
	}
	fns := p.deathFns
	p.mu.Unlock()
	if !first {
		return
	}
	p.box.fail(err)
	for _, fn := range fns {
		fn(peer, err)
	}
}

func (p *procWorld) markBye(peer int) {
	p.mu.Lock()
	p.byeSeen[peer] = true
	p.byeCond.Broadcast()
	p.mu.Unlock()
}

// Proc is one rank's handle on a process-spanning cohort: lifecycle and
// failure observation for the world Comm returned alongside it by Join.
type Proc struct {
	pw *procWorld
}

// Generation returns the rendezvous generation this world formed as;
// it increases across cohort re-formations.
func (p *Proc) Generation() uint64 { return p.pw.gen }

// OnRankDeath registers fn to run (once, on the first death) when a peer
// rank dies. Registration after a death fires fn immediately.
func (p *Proc) OnRankDeath(fn func(rank int, err error)) {
	p.pw.mu.Lock()
	if err := p.pw.deadErr; err != nil {
		p.pw.mu.Unlock()
		var rd *RankDeadError
		if errors.As(err, &rd) {
			fn(rd.Rank, err)
		}
		return
	}
	p.pw.deathFns = append(p.pw.deathFns, fn)
	p.pw.mu.Unlock()
}

// closeTimeout bounds how long Close waits for peers' finalize byes
// before tearing connections down anyway.
const closeTimeout = 5 * time.Second

// Close finalizes this rank's membership: it sends the bye handshake to
// every peer, waits (bounded) until every peer's bye has arrived — so no
// connection teardown can be mistaken for a death — and then releases
// connections, listener, and control channel. Close is collective in the
// MPI_Finalize sense: every rank should call it with no traffic in
// flight. After Close the communicator is revoked.
func (p *Proc) Close() error {
	pw := p.pw
	pw.mu.Lock()
	if pw.closing {
		pw.mu.Unlock()
		return nil
	}
	pw.closing = true
	pw.mu.Unlock()

	// Phase 1: tell every peer we are leaving.
	for _, conn := range pw.peers {
		if conn == nil {
			continue
		}
		_ = conn.Send([]byte{kBye})
		if d, ok := conn.(writeDrainer); ok {
			d.DrainWrites()
		}
	}
	// Phase 2: wait for their byes (or a recorded death) so closing our
	// end cannot be observed as a crash mid-handshake.
	deadline := time.Now().Add(closeTimeout)
	pw.mu.Lock()
	for !pw.allByesLocked() && pw.deadErr == nil && time.Now().Before(deadline) {
		waitCond(pw.byeCond, 10*time.Millisecond)
	}
	pw.mu.Unlock()

	// Phase 3: teardown.
	if pw.listener != nil {
		pw.listener.Close()
	}
	for _, conn := range pw.peers {
		if conn != nil {
			conn.Close()
		}
	}
	pw.ctlMu.Lock()
	if pw.ctl != nil {
		_ = pw.ctl.Send([]byte{rvBye})
		pw.ctl.Close()
	}
	pw.ctlMu.Unlock()
	pw.loopWG.Wait()
	pw.box.fail(ErrCommRevoked)
	return nil
}

// allByesLocked reports whether every live peer finalized.
func (pw *procWorld) allByesLocked() bool {
	for r, conn := range pw.peers {
		if conn == nil {
			continue
		}
		if !pw.byeSeen[r] {
			return false
		}
	}
	return true
}

// waitCond waits on c with an upper bound (sync.Cond has no timed wait;
// the timer wakes the condition so the caller re-checks its deadline).
func waitCond(c *sync.Cond, d time.Duration) {
	t := time.AfterFunc(d, c.Broadcast)
	c.Wait()
	t.Stop()
}

// Kill hard-closes every connection without the finalize handshake — the
// chaos hook that makes this rank look crashed to its peers, exactly as a
// SIGKILL would. The local communicator is revoked.
func (p *Proc) Kill() {
	pw := p.pw
	pw.mu.Lock()
	if pw.closing {
		pw.mu.Unlock()
		return
	}
	pw.closing = true
	pw.mu.Unlock()
	if pw.listener != nil {
		pw.listener.Close()
	}
	for _, conn := range pw.peers {
		if conn != nil {
			conn.Close()
		}
	}
	pw.ctlMu.Lock()
	if pw.ctl != nil {
		pw.ctl.Close()
	}
	pw.ctlMu.Unlock()
	pw.loopWG.Wait()
	pw.box.fail(ErrCommRevoked)
}
