//go:build unix

package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// Shared-memory transport: a file-backed pair of SPSC byte rings per
// connection, for components on the same host that are not in the same
// process (where InProc applies) but should not pay the kernel socket
// round trip of TCP loopback.
//
// An address is a directory. The listener owns it by holding an
// exclusive flock on <dir>/listener.lock; a dialer creates a fresh
// <dir>/cNNN-NNN.ring file, maps it, and publishes a handshake word the
// listener's Accept loop claims by compare-and-swap. Both sides keep a
// shared flock on the ring file for as long as they have it mapped, so
// liveness is testable after a crash: if an exclusive flock on a ring
// file succeeds, nobody has it mapped and the file is garbage. See
// DESIGN.md §10 for the full layout and recovery story.
//
// Each direction of a connection is one ring: a power-of-two byte buffer
// plus two monotonically increasing cursors on separate cache lines —
// tail (bytes produced) written only by the sender, head (bytes
// consumed) written only by the receiver. Frames are an 8-byte
// little-endian length followed by the payload, padded to 8 bytes so a
// length word never straddles the wrap. A frame larger than the ring is
// streamed: the sender publishes tail as bytes become visible, the
// receiver frees space by publishing head as it copies out, and the two
// proceed in lockstep through a frame neither could hold alone.

const (
	shmMagic   = 0x53484d52494e4731 // "SHMRING1", also a format version
	shmHdrSize = 4096               // connection header: one page
	// shmRingSize is the data capacity of one direction. Must be a power
	// of two (offset math masks with shmRingSize-1) and a multiple of 8.
	// 256 KiB rides well above the ORB's coalescing sizes while keeping a
	// connection's mapping at ~516 KiB; frames beyond it stream.
	shmRingSize    = 256 << 10
	shmRingHdrSize = 128 // tail and head cursors, a cache line apart
	shmFileSize    = shmHdrSize + 2*(shmRingHdrSize+shmRingSize)

	// Connection-header offsets (all 8-aligned; the mmap base is
	// page-aligned, so absolute alignment follows).
	shmOffMagic      = 0  // u64, written last during dialer init
	shmOffState      = 8  // u32 handshake word, see shmState* below
	shmOffDialerEnd  = 16 // u32, 1 once the dialing side has closed
	shmOffAcceptEnd  = 20 // u32, 1 once the accepting side has closed
	shmOffRingSize   = 24 // u64, sanity-checked against shmRingSize
	shmOffRing0      = shmHdrSize
	shmOffRing1      = shmHdrSize + shmRingHdrSize + shmRingSize
	shmRingOffTail   = 0
	shmRingOffHead   = 64
	shmLockFile      = "listener.lock"
	shmRingSuffix    = ".ring"
	shmTmpSuffix     = ".tmp" // ring file still being initialized by its dialer
	shmDialTimeout   = 10 * time.Second
	shmProbeInterval = 10 * time.Millisecond
)

const (
	shmStateInit     = 0 // dialer still initializing the file
	shmStateReady    = 1 // dialer waiting; Accept may CAS-claim
	shmStateAccepted = 2 // claimed by a listener
)

// SHM is the same-host shared-memory transport. Addresses are directory
// paths (created on Listen if absent). The zero value is ready to use.
type SHM struct{}

func (SHM) Name() string { return "shm" }

// shmSeq disambiguates ring files created by the same process.
var shmSeq atomic.Uint64

// shmProcToken makes ring names unique across pid reuse: a listener's
// seen map keys on the file name, so a recycled pid regenerating an old
// c<pid>-<seq> name would otherwise be silently ignored by scan.
var shmProcToken = func() uint32 {
	var b [4]byte
	if _, err := crand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint32(b[:])
	}
	return uint32(time.Now().UnixNano())
}()

// Listen claims addr (a directory) by taking an exclusive flock on its
// lock file, then sweeps ring files left behind by crashed peers.
func (SHM) Listen(addr string) (Listener, error) {
	if err := os.MkdirAll(addr, 0o700); err != nil {
		return nil, fmt.Errorf("shm listen %q: %w", addr, err)
	}
	lf, err := os.OpenFile(filepath.Join(addr, shmLockFile), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shm listen %q: %w", addr, err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("%w: %q", ErrAddrInUse, addr)
	}
	sweepStaleRings(addr)
	return &shmListener{dir: addr, lock: lf, closed: make(chan struct{})}, nil
}

// sweepStaleRings unlinks ring files no process has mapped: both sides
// hold a shared flock while the file is open, so an exclusive flock
// succeeding proves abandonment (crash, kill -9, or plain exit).
func sweepStaleRings(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), shmRingSuffix) &&
			!strings.HasSuffix(e.Name(), shmRingSuffix+shmTmpSuffix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		if syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil {
			if os.Remove(path) == nil {
				cShmStale.Inc()
			}
		}
		f.Close()
	}
}

// Dial probes listener liveness, creates and maps a fresh ring file, and
// waits for the listener to claim it.
//
// The file is created and fully initialized under a temporary name that
// scan and sweep ignore, then renamed into place: a half-built ring must
// never be visible at its final name, because the window between create
// and flock is unlocked and zero-sized — exactly what the listener's
// stale-remnant cleanup looks for, so it would delete a live dial out
// from under us (observed as rare formation timeouts in multi-process
// launch storms before the rename was introduced).
func (SHM) Dial(addr string) (Conn, error) {
	if err := shmProbeListener(addr); err != nil {
		return nil, err
	}
	path := filepath.Join(addr, fmt.Sprintf("c%d-%08x-%d%s", os.Getpid(), shmProcToken, shmSeq.Add(1), shmRingSuffix))
	tmp := path + shmTmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shm dial %q: %w", addr, err)
	}
	// The shared flock marks the file as live; held until Close unmaps.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_SH); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("shm dial %q: flock: %w", addr, err)
	}
	if err := f.Truncate(shmFileSize); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("shm dial %q: %w", addr, err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, shmFileSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("shm dial %q: mmap: %w", addr, err)
	}
	binary.LittleEndian.PutUint64(mem[shmOffRingSize:], shmRingSize)
	// Mark liveness before a listener can claim the file: the acceptor
	// may probe our byte as soon as its claim lands. Abandoning releases
	// the mark with f.
	shmLiveLock(f, true)
	// Publish magic before flipping state to ready: Accept validates magic
	// only after observing ready, and both are atomic stores/loads.
	shmU64(mem, shmOffMagic).Store(shmMagic)
	shmU32(mem, shmOffState).Store(shmStateReady)
	if err := os.Rename(tmp, path); err != nil {
		shmU32(mem, shmOffDialerEnd).Store(1)
		syscall.Munmap(mem)
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("shm dial %q: %w", addr, err)
	}

	abandon := func() {
		// Mark our end closed before unmapping: if a listener wins the
		// claim CAS in the same instant we give up, its conn observes
		// peerEnd and fails promptly instead of blocking in Recv forever.
		shmU32(mem, shmOffDialerEnd).Store(1)
		syscall.Munmap(mem)
		f.Close()
		os.Remove(path)
	}
	deadline := time.Now().Add(shmDialTimeout)
	lastProbe := time.Now()
	var w waiter
	for shmU32(mem, shmOffState).Load() != shmStateAccepted {
		if now := time.Now(); now.Sub(lastProbe) >= shmProbeInterval {
			lastProbe = now
			if err := shmProbeListener(addr); err != nil {
				abandon()
				return nil, err
			}
			if now.After(deadline) {
				abandon()
				return nil, fmt.Errorf("shm dial %q: handshake timeout", addr)
			}
		}
		w.pause()
	}
	cShmDials.Inc()
	return newShmConn(mem, f, path, true), nil
}

// shmProbeListener reports ErrNoListener unless a listener currently
// holds the exclusive lock on addr's lock file.
func shmProbeListener(addr string) error {
	lf, err := os.Open(filepath.Join(addr, shmLockFile))
	if err != nil {
		return fmt.Errorf("%w: %q", ErrNoListener, addr)
	}
	defer lf.Close()
	// A shared flock succeeding means no listener holds the exclusive
	// lock. (Dialers only ever take it non-blocking and drop it at once,
	// so dialers never block each other out of this probe.)
	if syscall.Flock(int(lf.Fd()), syscall.LOCK_SH|syscall.LOCK_NB) == nil {
		return fmt.Errorf("%w: %q", ErrNoListener, addr)
	}
	return nil
}

type shmListener struct {
	dir  string
	lock *os.File

	mu     sync.Mutex // serializes Accept; guards seen
	seen   map[string]bool
	closed chan struct{}
	once   sync.Once
}

func (l *shmListener) Addr() string { return l.dir }

func (l *shmListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		// Releasing the flock (via close) is what flips future dialer
		// probes to ErrNoListener; the lock file itself stays for reuse.
		l.lock.Close()
	})
	return nil
}

// Accept polls the directory for ring files in the ready state and
// claims one by CAS. Polling (with the waiter's backoff, capped at
// millisecond sleeps) trades a few milliseconds of accept latency for
// having no doorbell state that a crashed dialer could corrupt.
func (l *shmListener) Accept() (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	var w waiter
	for {
		select {
		case <-l.closed:
			return nil, ErrClosed
		default:
		}
		if c := l.scan(); c != nil {
			cShmAccepts.Inc()
			return c, nil
		}
		w.pause()
	}
}

// scan tries to claim one ready ring file; nil if none are ready.
func (l *shmListener) scan() Conn {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	// Prune seen entries whose files are gone so a long-lived listener's
	// map tracks the directory instead of growing without bound.
	if len(l.seen) > 0 {
		present := make(map[string]bool, len(entries))
		for _, e := range entries {
			present[e.Name()] = true
		}
		for name := range l.seen {
			if !present[name] {
				delete(l.seen, name)
			}
		}
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, shmRingSuffix) || l.seen[name] {
			continue
		}
		path := filepath.Join(l.dir, name)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			l.seen[name] = true
			continue
		}
		if syscall.Flock(int(f.Fd()), syscall.LOCK_SH|syscall.LOCK_NB) != nil {
			f.Close()
			continue
		}
		// The dialer creates the file at size 0 and truncates afterwards;
		// mmapping it before the truncate would SIGBUS on the first load
		// past EOF. Skip short files without marking them seen (the dialer
		// is mid-init and will be picked up next scan). If nobody holds a
		// lock on a short file, the dialer died before the truncate —
		// remove the remnant so it is not rescanned forever.
		if st, err := f.Stat(); err != nil || st.Size() < shmFileSize {
			if err == nil && syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil {
				if os.Remove(path) == nil {
					cShmStale.Inc()
				}
			}
			f.Close()
			continue
		}
		mem, err := syscall.Mmap(int(f.Fd()), 0, shmFileSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err != nil {
			f.Close()
			l.seen[name] = true
			continue
		}
		ok := shmU32(mem, shmOffState).Load() == shmStateReady &&
			shmU64(mem, shmOffMagic).Load() == shmMagic &&
			binary.LittleEndian.Uint64(mem[shmOffRingSize:]) == shmRingSize
		if ok {
			// Mark liveness before the claim: the dialer's Dial returns,
			// and may probe our byte, as soon as the CAS lands. A lost
			// CAS releases the mark when f closes after the munmap.
			shmLiveLock(f, false)
			ok = shmU32(mem, shmOffState).CompareAndSwap(shmStateReady, shmStateAccepted)
		}
		if !ok {
			// Not ready yet (dialer mid-init) — retry next scan; anything
			// already claimed or malformed is skipped for good.
			if shmU32(mem, shmOffState).Load() != shmStateInit {
				l.seen[name] = true
			}
			syscall.Munmap(mem)
			f.Close()
			continue
		}
		l.seen[name] = true
		return newShmConn(mem, f, path, false)
	}
	return nil
}

// shmRing is one direction's view of the mapped region.
type shmRing struct {
	tail *atomic.Uint64 // bytes ever produced; written by sender only
	head *atomic.Uint64 // bytes ever consumed; written by receiver only
	data []byte         // shmRingSize bytes, indexed by cursor & mask
}

func shmU64(mem []byte, off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&mem[off]))
}

func shmU32(mem []byte, off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&mem[off]))
}

func shmRingAt(mem []byte, base int) *shmRing {
	return &shmRing{
		tail: shmU64(mem, base+shmRingOffTail),
		head: shmU64(mem, base+shmRingOffHead),
		data: mem[base+shmRingHdrSize : base+shmRingHdrSize+shmRingSize : base+shmRingHdrSize+shmRingSize],
	}
}

// copyIn copies b into the ring at monotonic position pos (wrap-aware).
// Space must already be reserved by the caller's cursor arithmetic.
func (r *shmRing) copyIn(pos uint64, b []byte) {
	off := int(pos) & (shmRingSize - 1)
	n := copy(r.data[off:], b)
	if n < len(b) {
		copy(r.data, b[n:])
	}
}

// copyOut copies from monotonic position pos into b (wrap-aware).
func (r *shmRing) copyOut(pos uint64, b []byte) {
	off := int(pos) & (shmRingSize - 1)
	n := copy(b, r.data[off:])
	if n < len(b) {
		copy(b[n:], r.data)
	}
}

type shmConn struct {
	sendMu sync.Mutex
	recvMu sync.Mutex

	mem    []byte
	f      *os.File
	path   string
	dialer bool // which liveness byte is ours (see shm_livelock_*.go)

	sendRing *shmRing
	recvRing *shmRing
	myEnd    *atomic.Uint32 // this side's closed flag, in the mapping
	peerEnd  *atomic.Uint32

	unmapped bool // guarded by both mutexes; set by Close before munmap
	once     sync.Once
	closeErr error
}

// newShmConn builds a side's view: the dialer sends on ring 0 and
// receives on ring 1, the acceptor the reverse. The caller has already
// placed this side's liveness mark (shmLiveLock) before the handshake
// let the peer see the connection.
func newShmConn(mem []byte, f *os.File, path string, dialer bool) *shmConn {
	c := &shmConn{mem: mem, f: f, path: path, dialer: dialer}
	r0, r1 := shmRingAt(mem, shmOffRing0), shmRingAt(mem, shmOffRing1)
	de, ae := shmU32(mem, shmOffDialerEnd), shmU32(mem, shmOffAcceptEnd)
	if dialer {
		c.sendRing, c.recvRing, c.myEnd, c.peerEnd = r0, r1, de, ae
	} else {
		c.sendRing, c.recvRing, c.myEnd, c.peerEnd = r1, r0, ae, de
	}
	return c
}

func (c *shmConn) closedEither() bool {
	return c.myEnd.Load() != 0 || c.peerEnd.Load() != 0
}

// shmProbeEvery is how long a ring wait stays blocked between flock
// liveness probes. The period is kept by the clock, not by a count of
// pauses, because a pause costs anything from a sub-microsecond yield to
// a millisecond sleep: 512 pauses are ~100ms of sleeps but only ~100µs
// of yields. A probe is one fcntl, invisible on a live connection; on a
// dead one it bounds the hang.
const shmProbeEvery = 100 * time.Millisecond

// ringWait is one ring-cursor wait: the waiter's backoff plus how long
// the wait had lasted at its last liveness probe.
type ringWait struct {
	waiter
	probed time.Duration
}

func (w *ringWait) reset() { *w = ringWait{} }

// pauseProbe is w.pause() plus periodic crash-liveness detection. On a
// detected death it marks the peer end closed in the mapping — waking
// every other blocked waiter on this conn — and returns ErrPeerDead.
func (c *shmConn) pauseProbe(w *ringWait) error {
	waited := w.pause()
	if waited-w.probed < shmProbeEvery {
		return nil
	}
	w.probed = waited
	if shmPeerAlive(c.f, c.dialer) {
		return nil
	}
	if c.peerEnd.Load() != 0 {
		// Graceful close raced the probe: the peer set its flag before
		// releasing the lock.
		return ErrClosed
	}
	c.peerEnd.Store(1)
	cShmPeerDead.Inc()
	return ErrPeerDead
}

// waitSpace blocks until the ring can absorb need more bytes beyond
// position pos (i.e. pos+need-head <= capacity), or either side closes.
func (c *shmConn) waitSpace(r *shmRing, pos uint64, need int, w *ringWait) error {
	for {
		if int(pos-r.head.Load()) <= shmRingSize-need {
			w.reset()
			return nil
		}
		if c.closedEither() {
			return ErrClosed
		}
		if err := c.pauseProbe(w); err != nil {
			return err
		}
	}
}

func (c *shmConn) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(frame))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.unmapped || c.closedEither() {
		return ErrClosed
	}
	r := c.sendRing
	var w ringWait
	tail := r.tail.Load()
	if err := c.waitSpace(r, tail, 8, &w); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(frame)))
	r.copyIn(tail, hdr[:])
	tail += 8
	r.tail.Store(tail)

	// Stream the payload: publish tail chunk by chunk so a frame larger
	// than the ring flows through it while the receiver drains.
	rem := frame
	for len(rem) > 0 {
		avail := shmRingSize - int(tail-r.head.Load())
		if avail <= 0 {
			if err := c.waitSpace(r, tail, 1, &w); err != nil {
				return err
			}
			continue
		}
		n := avail
		if n > len(rem) {
			n = len(rem)
		}
		r.copyIn(tail, rem[:n])
		tail += uint64(n)
		rem = rem[n:]
		r.tail.Store(tail)
	}
	// Pad to 8 so the next length word is aligned; pad bytes are never
	// read, but the cursor advance still needs reserved space.
	if pad := int(-tail & 7); pad > 0 {
		if err := c.waitSpace(r, tail, pad, &w); err != nil {
			return err
		}
		tail += uint64(pad)
		r.tail.Store(tail)
	}
	if obs.MetricsEnabled() {
		cFramesSent.Inc()
		cBytesSent.Add(uint64(len(frame)))
	}
	return nil
}

func (c *shmConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.unmapped || c.myEnd.Load() != 0 {
		return nil, ErrClosed
	}
	r := c.recvRing
	var w ringWait
	head := r.head.Load()
	// Wait for a length word. A peer close still drains fully buffered
	// frames (tail is only published for complete writes of each chunk,
	// and the peer finishes the in-flight Send before setting its flag).
	//
	// The comparison MUST be signed: the previous Recv rounds head up
	// over the sender's alignment pad as soon as the payload is fully
	// consumed, which can land head up to 7 bytes PAST a tail the
	// sender has not yet advanced over that pad. Unsigned tail-head
	// wraps to ~2^64 there and would let the receiver read a stale
	// previous-lap byte as the next frame's length word.
	for int64(r.tail.Load()-head) < 8 {
		if c.myEnd.Load() != 0 {
			return nil, ErrClosed
		}
		if c.peerEnd.Load() != 0 && int64(r.tail.Load()-head) < 8 {
			return nil, ErrClosed
		}
		if err := c.pauseProbe(&w); err != nil {
			return nil, err
		}
	}
	w.reset()
	var hdr [8]byte
	r.copyOut(head, hdr[:])
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > MaxFrame {
		// Corrupt ring (or hostile peer): poison the connection rather
		// than resynchronize — there is no reliable resync point.
		c.myEnd.Store(1)
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	pos := head + 8
	r.head.Store(pos)
	frame := grabFrame(int(n))
	copied := 0
	for copied < int(n) {
		avail := int(r.tail.Load() - pos)
		if avail <= 0 {
			if c.myEnd.Load() != 0 || c.peerEnd.Load() != 0 {
				ReleaseFrame(frame)
				return nil, ErrClosed
			}
			if err := c.pauseProbe(&w); err != nil {
				ReleaseFrame(frame)
				return nil, err
			}
			continue
		}
		w.reset()
		if avail > int(n)-copied {
			avail = int(n) - copied
		}
		r.copyOut(pos, frame[copied:copied+avail])
		copied += avail
		pos += uint64(avail)
		// Publishing head mid-frame is what lets the sender stream frames
		// larger than the ring.
		r.head.Store(pos)
	}
	r.head.Store((pos + 7) &^ 7) // skip the sender's alignment pad
	if obs.MetricsEnabled() {
		cFramesRecv.Inc()
		cBytesRecv.Add(n)
	}
	return frame, nil
}

func (c *shmConn) Close() error {
	c.once.Do(func() {
		// Order matters: publish the closed flag first so waiters parked
		// in Send/Recv observe it and drain out, then take both mutexes
		// so nobody is touching the mapping when it goes away.
		c.myEnd.Store(1)
		peerGone := c.peerEnd.Load() != 0
		c.sendMu.Lock()
		c.recvMu.Lock()
		c.unmapped = true
		err := syscall.Munmap(c.mem)
		c.mem = nil
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.recvMu.Unlock()
		c.sendMu.Unlock()
		if peerGone {
			// Last one out unlinks; otherwise the peer (or the listener's
			// sweep) does.
			os.Remove(c.path)
		}
		c.closeErr = err
	})
	return c.closeErr
}
