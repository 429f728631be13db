// This file holds the shared frame contract (errors, pooling, limits)
// plus the InProc and TCP backends; shm.go holds the shared-memory
// backend. Package-level documentation lives in doc.go.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/obs"
)

// Transport-level instruments, shared by both transports: frame and byte
// counters on each direction (payload bytes; length prefixes excluded),
// and the coalescer's flush-window occupancy histogram — the one number
// that says whether group commit is actually batching.
var (
	cFramesSent = obs.NewCounter("transport.frames_sent")
	cBytesSent  = obs.NewCounter("transport.bytes_sent")
	cFramesRecv = obs.NewCounter("transport.frames_recv")
	cBytesRecv  = obs.NewCounter("transport.bytes_recv")
	hFlushWin   = obs.NewHistogram("transport.tcp.flush_window_frames")
)

// TCP connections tally frames/bytes in per-connection cells instead of
// the shared counters above: the tally sites already hold a per-conn lock
// (wmu on Send, recvMu on Recv), so a single-writer atomic Store is enough
// for visibility and the hot path pays no read-modify-write. The cells
// surface through additive func-backed registry counters — summed only
// when a snapshot is taken — under the same names the in-process transport
// feeds directly (the registry adds both sources together).
const (
	statFramesSent = iota
	statBytesSent
	statFramesRecv
	statBytesRecv
	numConnStats
)

var tcpStats = struct {
	mu      sync.Mutex
	conns   map[*tcpConn]struct{}
	retired [numConnStats]uint64 // tallies of closed connections
}{conns: map[*tcpConn]struct{}{}}

func init() {
	for i, name := range [numConnStats]string{
		statFramesSent: "transport.frames_sent",
		statBytesSent:  "transport.bytes_sent",
		statFramesRecv: "transport.frames_recv",
		statBytesRecv:  "transport.bytes_recv",
	} {
		obs.AddCounterFunc(name, func() uint64 { return tcpStatTotal(i) })
	}
}

func tcpStatTotal(i int) uint64 {
	tcpStats.mu.Lock()
	defer tcpStats.mu.Unlock()
	total := tcpStats.retired[i]
	for c := range tcpStats.conns {
		total += c.stats[i].Load()
	}
	return total
}

// Errors reported by transports.
var (
	ErrClosed      = errors.New("transport: connection closed")
	ErrNoListener  = errors.New("transport: no listener at address")
	ErrAddrInUse   = errors.New("transport: address already in use")
	ErrFrameTooBig = errors.New("transport: frame exceeds limit")

	// ErrPeerDead reports that the process on the other end of a
	// connection died without closing it — detected by the shm backend's
	// flock liveness probe when a blocked Send/Recv would otherwise wait
	// forever on a ring no one will ever advance. It wraps ErrClosed, so
	// existing errors.Is(err, ErrClosed) checks (and orb.Classify's
	// retryable classification) see it as a connection-level failure.
	ErrPeerDead = fmt.Errorf("%w: peer process died", ErrClosed)
)

// MaxFrame bounds a single message frame (64 MiB), protecting against
// corrupt length prefixes.
const MaxFrame = 64 << 20

// Conn is a bidirectional, message-oriented connection.
type Conn interface {
	// Send transmits one frame. Send is safe for concurrent use; frames
	// from concurrent senders are delivered whole, in some serial order.
	// Implementations do not retain frame past return: the caller may
	// reuse its backing array as soon as Send returns.
	Send(frame []byte) error
	// Recv blocks for the next frame. The returned slice is owned by the
	// caller; callers that fully consume a frame may hand it back with
	// ReleaseFrame to keep the receive path allocation-free.
	Recv() ([]byte, error)
	// Close releases the connection; pending Recv calls fail with
	// ErrClosed (or io.EOF mapped to ErrClosed).
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the address clients dial.
	Addr() string
}

// Transport creates listeners and dials connections.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
	Name() string
}

// --- pooled receive frames ---

// The frame pool recycles payload buffers between Recv and ReleaseFrame in
// power-of-two size classes, minFrameShift through maxFrameShift: class k
// holds buffers of capacity at least 1<<k, and a length-n request draws
// from the smallest class that fits n, so no request ever meets — and
// discards — a pooled buffer too small for it.
//
// maxPooledFrame (the top class) is set by the bulk paths this repository
// moves: a 1 MiB mpi vector or a 2×512 KiB ORB request plus its header is
// just over 1 MiB and lands in the 2 MiB class, which a 1 MiB cap would
// leave to a fresh, zeroed, page-faulting allocation on every receive.
// Larger frames are one-off transfers: their memory goes back to the
// garbage collector rather than staying pinned in the pool.
const (
	minFrameShift  = 9
	maxFrameShift  = 22
	maxPooledFrame = 1 << maxFrameShift
)

// Buffers travel inside *[]byte boxes; grabFrame strips the box off and
// parks it in boxPool so that at steady state neither Get nor Put
// allocates.
var (
	framePools [maxFrameShift - minFrameShift + 1]sync.Pool // *[]byte boxes, by class
	boxPool    = sync.Pool{New: func() any { return new([]byte) }}
)

// grabFrame returns a length-n buffer, reusing pooled storage when its
// class has any.
func grabFrame(n int) []byte {
	k := minFrameShift
	if n > 1<<minFrameShift {
		k = bits.Len(uint(n - 1)) // smallest k with 1<<k ≥ n
	}
	if k > maxFrameShift {
		return make([]byte, n)
	}
	if p, ok := framePools[k-minFrameShift].Get().(*[]byte); ok {
		b := *p
		*p = nil
		boxPool.Put(p)
		return b[:n]
	}
	return make([]byte, n, 1<<k)
}

// ReleaseFrame returns a frame obtained from Conn.Recv to the package pool.
// The caller must not touch the frame (or anything aliasing it) afterwards.
// Releasing is optional — an unreleased frame is simply garbage-collected —
// but consumers that copy out everything they need (the ORB's decoder
// copies every value) run allocation-free at steady state by releasing.
func ReleaseFrame(f []byte) {
	c := cap(f)
	if c < 1<<minFrameShift || c > maxPooledFrame {
		return
	}
	p := boxPool.Get().(*[]byte)
	*p = f[:0]
	framePools[bits.Len(uint(c))-1-minFrameShift].Put(p) // the largest class c covers
}

// --- in-process transport ---

// InProc is an in-process loopback transport. Addresses are arbitrary
// strings scoped to the InProc instance. The zero value is ready to use.
type InProc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// Name implements Transport.
func (t *InProc) Name() string { return "inproc" }

// Listen implements Transport.
func (t *InProc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listeners == nil {
		t.listeners = map[string]*inprocListener{}
	}
	if _, dup := t.listeners[addr]; dup {
		return nil, fmt.Errorf("%w: %q", ErrAddrInUse, addr)
	}
	l := &inprocListener{t: t, addr: addr, backlog: make(chan *inprocConn, 16)}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *InProc) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoListener, addr)
	}
	client, server := pipePair()
	// The backlog handoff is guarded by the listener mutex: Close closes
	// the backlog channel under the same mutex after setting closed, so a
	// dial racing a close observes ErrClosed instead of panicking on a
	// send to a closed channel.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrClosed, addr)
	}
	select {
	case l.backlog <- server:
		l.mu.Unlock()
		return client, nil
	default:
		l.mu.Unlock()
		return nil, fmt.Errorf("transport: %q backlog full", addr)
	}
}

type inprocListener struct {
	t       *InProc
	addr    string
	mu      sync.Mutex
	closed  bool
	backlog chan *inprocConn
}

func (l *inprocListener) Accept() (Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *inprocListener) Close() error {
	l.t.mu.Lock()
	delete(l.t.listeners, l.addr)
	l.t.mu.Unlock()
	l.mu.Lock()
	first := !l.closed
	if first {
		l.closed = true
		close(l.backlog)
	}
	l.mu.Unlock()
	if first {
		// Close queued, never-accepted connections so their dialers see
		// ErrClosed instead of hanging on Recv.
		for c := range l.backlog {
			c.Close()
		}
	}
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// inprocConn is one direction pair of buffered frame channels.
type inprocConn struct {
	send   chan<- []byte
	recv   <-chan []byte
	closed chan struct{}
	peer   *inprocConn
	once   sync.Once
}

func pipePair() (*inprocConn, *inprocConn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	a := &inprocConn{send: ab, recv: ba, closed: make(chan struct{})}
	b := &inprocConn{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *inprocConn) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(frame))
	}
	// An already-closed connection must refuse writes deterministically:
	// in the blocking select below the buffered channel send can stay
	// ready after close, and Go picks among ready cases at random — a
	// severed connection would then accept a frame now and then, which
	// would blind failure detectors (heartbeats) that rely on the write
	// error.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	default:
	}
	// Copy before handing off: Conn.Send promises the caller may reuse the
	// frame as soon as Send returns (the ORB pools its encode buffers), but
	// a channel retains the slice until the peer receives it. The copy
	// lives in a pooled buffer the receiver can hand back with
	// ReleaseFrame.
	owned := grabFrame(len(frame))
	copy(owned, frame)
	select {
	case <-c.closed:
		ReleaseFrame(owned)
		return ErrClosed
	case <-c.peer.closed:
		ReleaseFrame(owned)
		return ErrClosed
	case c.send <- owned:
		cFramesSent.Inc()
		cBytesSent.Add(uint64(len(frame)))
		return nil
	}
}

func (c *inprocConn) Recv() ([]byte, error) {
	select {
	case f := <-c.recv:
		cFramesRecv.Inc()
		cBytesRecv.Add(uint64(len(f)))
		return f, nil
	case <-c.closed:
		// Drain anything already queued before reporting closure.
		select {
		case f := <-c.recv:
			cFramesRecv.Inc()
			cBytesRecv.Add(uint64(len(f)))
			return f, nil
		default:
			return nil, ErrClosed
		}
	case <-c.peer.closed:
		select {
		case f := <-c.recv:
			cFramesRecv.Inc()
			cBytesRecv.Add(uint64(len(f)))
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// --- TCP transport ---

// TCP is a Transport over real sockets with 4-byte big-endian length
// framing. Addresses are host:port; Listen with ":0" picks a free port
// (recover it from Listener.Addr).
type TCP struct{}

// Name implements Transport.
func (TCP) Name() string { return "tcp" }

// Listen implements Transport. A port already bound surfaces as
// ErrAddrInUse, matching the other backends.
func (TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		if errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("%w: %q", ErrAddrInUse, addr)
		}
		return nil, err
	}
	return tcpListener{nl}, nil
}

// Dial implements Transport. A refused connection surfaces as
// ErrNoListener, matching the other backends.
func (TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		if errors.Is(err, syscall.ECONNREFUSED) {
			return nil, fmt.Errorf("%w: %q", ErrNoListener, addr)
		}
		return nil, err
	}
	return newTCPConn(nc), nil
}

type tcpListener struct{ nl net.Listener }

func (l tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		// A listener closed mid-Accept reports ErrClosed like the other
		// backends, not net's "use of closed network connection".
		return nil, mapErr(err)
	}
	return newTCPConn(nc), nil
}

func (l tcpListener) Close() error { return l.nl.Close() }
func (l tcpListener) Addr() string { return l.nl.Addr().String() }

// coalesceCutoff is the largest frame copied into the shared write buffer.
// Larger frames are queued as their own iovec and written zero-copy; the
// copy would cost more than the extra iovec saves.
const coalesceCutoff = 4 << 10

// CoalesceCutoff exports the coalescer's copy/zero-copy boundary: frames
// strictly larger than this ride the zero-copy writev path. Bulk-transfer
// layers (repro/internal/dist/collective) size their chunks above it so
// every chunk frame is written without a coalescing copy.
const CoalesceCutoff = coalesceCutoff

// MaxFlushWindow exports the adaptive flush window's frame cap. Bulk
// layers derive their credit-based in-flight window from it
// (MaxFlushWindow × CoalesceCutoff bytes by default), keeping the amount
// of data in flight consistent with what the coalescer is sized to batch.
const MaxFlushWindow = maxFlushWindow

// recvBufSize sizes the buffered reader: big enough that a whole flush
// window of small frames (header + payload) arrives in one read syscall.
const recvBufSize = 64 << 10

// maxFlushWindow caps how many frames a flusher gathers before it stops
// yielding and writes: deep enough to batch every in-flight call of a busy
// multiplexed connection, small enough that a sustained stream of senders
// cannot postpone the flush unboundedly.
const maxFlushWindow = 64

// wseg is one queued write segment: a [lo,hi) window of the shared
// coalesce buffer, or (ref != nil) a zero-copy reference to a large frame.
type wseg struct {
	lo, hi int
	ref    []byte
}

// tcpConn frames messages over a net.Conn.
//
// The write side is a group-commit coalescer: Send queues its frame
// (4-byte length header always goes through the coalesce buffer; small
// payloads are copied after it, large payloads are referenced zero-copy)
// and the first sender to find no flush in progress becomes the leader,
// flushing windows of queued frames with one writev each until the queue is
// empty. Frames queued by concurrent senders while a window is being
// written batch into the next writev. Senders of small (copied) frames
// return as soon as their frame is queued — the leader owns the copy — so
// a pipelined burst pays one sleep/wake pair per window, not per frame;
// write failures are sticky and surface on later Sends and on the peer's
// read side. Senders of zero-copy frames wait until their segment has been
// written, so the referenced buffer never outlives the call.
type tcpConn struct {
	c      net.Conn
	br     *bufio.Reader
	recvMu sync.Mutex

	wmu       sync.Mutex
	wcond     *sync.Cond
	flushing  bool   // a flusher's writev is in progress
	nq, ndone uint64 // frames queued / frames flushed
	werr      error  // sticky write-side error
	wbuf      []byte // coalesced bytes awaiting flush
	wsegs     []wseg // flush order over wbuf windows and zero-copy refs
	spareBuf  []byte // double buffers recycled between flushes
	spareSegs []wseg
	iov       net.Buffers // flusher-owned iovec scratch

	// stats cells are written only under the respective lock (wmu for the
	// sent pair, recvMu for the recv pair); atomic Stores make them safe
	// to sum from tcpStatTotal without taking either.
	stats [numConnStats]atomic.Uint64
}

func newTCPConn(nc net.Conn) *tcpConn {
	c := &tcpConn{c: nc, br: bufio.NewReaderSize(nc, recvBufSize)}
	c.wcond = sync.NewCond(&c.wmu)
	tcpStats.mu.Lock()
	tcpStats.conns[c] = struct{}{}
	tcpStats.mu.Unlock()
	return c
}

// bump adds n to a stats cell. The caller holds the lock that serializes
// every writer of that cell, so a plain load + atomic store suffices.
func (c *tcpConn) bump(i int, n uint64) {
	c.stats[i].Store(c.stats[i].Load() + n)
}

// retireStats folds a closing connection's tallies into the package-wide
// retired totals so the func-backed counters stay monotonic after the
// conn is gone. Idempotent; a count landing concurrently with retirement
// may be dropped, which a metrics read tolerates.
func (c *tcpConn) retireStats() {
	tcpStats.mu.Lock()
	if _, live := tcpStats.conns[c]; live {
		delete(tcpStats.conns, c)
		for i := range c.stats {
			tcpStats.retired[i] += c.stats[i].Load()
		}
	}
	tcpStats.mu.Unlock()
}

func (c *tcpConn) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(frame))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))

	c.wmu.Lock()
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	if obs.MetricsEnabled() {
		c.bump(statFramesSent, 1)
		c.bump(statBytesSent, uint64(len(frame)))
	}
	c.appendSmall(hdr[:])
	small := len(frame) <= coalesceCutoff
	if small {
		c.appendSmall(frame)
	} else {
		c.wsegs = append(c.wsegs, wseg{ref: frame})
	}
	return c.commitLocked(small)
}

// commitLocked finishes a queued send: accounts the frame, elects or
// defers to the flush leader, and returns the write-side verdict. Called
// with wmu held and the frame's segments already appended; returns with
// wmu released.
func (c *tcpConn) commitLocked(small bool) error {
	c.nq++
	mySeq := c.nq
	switch {
	case !c.flushing:
		// Become the leader: flush until the queue is empty, covering
		// frames other senders enqueue meanwhile (they return without
		// waiting, so nobody else will).
		c.flushing = true
		c.flushLoop()
	case !small:
		// Zero-copy frames stay referenced until written; the caller may
		// recycle the buffer as soon as Send returns, so wait out the
		// leader's flush of our segment.
		for c.ndone < mySeq && c.werr == nil {
			c.wcond.Wait()
		}
	default:
		// Small frame, leader active: the copy in the coalesce buffer is
		// the leader's to write. Returning now saves a sleep/wake pair per
		// frame; a write failure surfaces as the sticky error on later
		// operations and as connection loss on the read side.
	}
	var err error
	if c.ndone < mySeq {
		err = c.werr // nil for a small frame the leader has yet to write
	}
	c.wmu.Unlock()
	return err
}

// DrainWrites implements WriteDrainer: block until every frame queued
// before the call has been written to the socket or the write side
// failed. Safe to call concurrently with senders; frames queued after
// the call may or may not be covered.
func (c *tcpConn) DrainWrites() {
	c.wmu.Lock()
	for (c.flushing || c.ndone < c.nq) && c.werr == nil {
		c.wcond.Wait()
	}
	c.wmu.Unlock()
}

// flushLoop runs the group-commit leader: flush windows until the queue is
// empty or the write side fails. Called with wmu held and the flushing flag
// claimed; returns with wmu held and the flag released.
//
// Before each writev the leader yields while the window keeps growing:
// senders that are already runnable (e.g. just woken by a reply batch) get
// to queue their frames into the same writev. Without the yield, a fast
// non-blocking writev on a single P finishes before any other sender runs,
// and the coalescer degenerates to one syscall per frame. The window is
// bounded so a steady stream of senders cannot postpone the flush
// indefinitely, and a lone sender pays exactly one yield.
func (c *tcpConn) flushLoop() {
	for c.werr == nil && c.ndone < c.nq {
		for {
			prev := c.nq
			c.wmu.Unlock()
			runtime.Gosched()
			c.wmu.Lock()
			if c.nq == prev || c.nq-c.ndone >= maxFlushWindow {
				break
			}
		}
		c.flush()
	}
	c.flushing = false
	// flush broadcasts while the flag is still claimed; wake DrainWrites
	// waiters that need to observe the leader retiring.
	c.wcond.Broadcast()
}

// appendSmall copies b into the coalesce buffer, merging into the previous
// segment when that segment is also a buffer window (consecutive small
// frames become one iovec).
func (c *tcpConn) appendSmall(b []byte) {
	lo := len(c.wbuf)
	c.wbuf = append(c.wbuf, b...)
	if n := len(c.wsegs); n > 0 && c.wsegs[n-1].ref == nil {
		c.wsegs[n-1].hi = len(c.wbuf)
		return
	}
	c.wsegs = append(c.wsegs, wseg{lo: lo, hi: len(c.wbuf)})
}

// flush takes ownership of the queued segments and writes them with one
// writev. Called with wmu held and flushing claimed by the caller; the lock
// is released around the syscall so senders can queue the next window, and
// reacquired before returning. The flushing flag stays claimed throughout —
// only flushLoop releases it, after its final window — so a sender that
// observes an unlocked wmu mid-flush can never become a second leader and
// race writes to the socket.
func (c *tcpConn) flush() {
	buf, segs, top := c.wbuf, c.wsegs, c.nq
	window := top - c.ndone // frames this writev covers (single flusher: stable)
	c.wbuf, c.wsegs = c.spareBuf, c.spareSegs
	c.spareBuf, c.spareSegs = nil, nil
	c.wmu.Unlock()
	hFlushWin.Observe(window)

	c.iov = c.iov[:0]
	for _, s := range segs {
		if s.ref != nil {
			c.iov = append(c.iov, s.ref)
		} else {
			c.iov = append(c.iov, buf[s.lo:s.hi])
		}
	}
	iov := c.iov
	_, err := iov.WriteTo(c.c)
	clear(c.iov) // drop payload references; pooled arrays must not stay pinned

	c.wmu.Lock()
	if top > c.ndone {
		c.ndone = top
	}
	if err != nil && c.werr == nil {
		c.werr = mapErr(err)
	}
	if cap(buf) <= maxPooledFrame {
		c.spareBuf = buf[:0]
	}
	c.spareSegs = segs[:0]
	c.wcond.Broadcast()
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var hdr [4]byte
	// Through the buffered reader, header and payload usually arrive with
	// a single read syscall (often along with the next frames of the same
	// flush window).
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, mapErr(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	frame := grabFrame(int(n))
	if _, err := io.ReadFull(c.br, frame); err != nil {
		return nil, mapErr(err)
	}
	if obs.MetricsEnabled() {
		c.bump(statFramesRecv, 1)
		c.bump(statBytesRecv, uint64(n))
	}
	return frame, nil
}

func (c *tcpConn) Close() error {
	c.retireStats()
	return c.c.Close()
}

func mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}
