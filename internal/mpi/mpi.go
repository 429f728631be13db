package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Wildcards for Recv matching, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Reserved internal tag space. User tags must be non-negative and below
// internalTagBase; collectives use tags at or above it so user traffic can
// never match collective traffic.
const internalTagBase = 1 << 28

// Common errors returned by communicator operations.
var (
	ErrRankRange   = errors.New("mpi: rank out of range")
	ErrTagRange    = errors.New("mpi: tag out of range")
	ErrTypeMatch   = errors.New("mpi: message payload type mismatch")
	ErrCountMatch  = errors.New("mpi: message length mismatch")
	ErrCommRevoked = errors.New("mpi: communicator revoked")
)

// RankDeadError reports that a cohort peer died: its connection to this
// rank broke without the finalize handshake (process crash, kill, network
// partition). It poisons the local rank's mailbox, so every blocked or
// future receive — including those inside collectives — fails with it
// instead of hanging. It unwraps to the underlying transport error, so
// orb.Classify sees a connection-level (retryable) failure.
type RankDeadError struct {
	Rank int // world rank of the dead peer
	Err  error
}

func (e *RankDeadError) Error() string {
	return fmt.Sprintf("mpi: rank %d died: %v", e.Rank, e.Err)
}

func (e *RankDeadError) Unwrap() error { return e.Err }

// engine is the rank-addressed point-to-point substrate a communicator
// runs on. One engine value serves one rank: send addresses peers by world
// rank, and recv takes from the owning rank's mailbox.
// The collective algorithms in collectives.go are written purely against
// Comm's send/recv internals, so they run unchanged over every engine:
// the goroutine backend (goEngine, one address space) and the process
// backend (procWorld, frames over the multiplexed transport).
type engine interface {
	// send delivers e to world rank dest. e.source is the sender's rank in
	// the communicator the message belongs to; e.tag is the effective
	// (context-folded) tag.
	send(dest int, e envelope) error
	// recv blocks until a message matching (source, efftag) is in this
	// rank's mailbox and removes it. Wildcards follow mailbox.take.
	recv(source, efftag int) (envelope, error)
	// allocCtx returns a fresh communicator context offset, unique across
	// the whole world for the lifetime of the job.
	allocCtx() (int, error)
	// sendCopies reports whether send to world rank dest has serialized
	// the payload by the time it returns, so the sender may go on mutating
	// it. When false the payload moves by reference: once sent it belongs
	// to the receiver, and the sender must not touch it again.
	sendCopies(dest int) bool
}

// envelope is a single in-flight message.
type envelope struct {
	source  int
	tag     int
	payload any
}

// mailbox is one rank's incoming message queue with MPI matching semantics:
// messages from the same (source, tag) pair are matched in FIFO order, and a
// receive may use wildcard source and/or tag.
//
// The queue keeps a head index instead of re-slicing on every match so the
// common case — matching the oldest message — is O(1) even when a fast
// sender has queued thousands of eager messages ahead of the receiver (the
// broadcast-loop pattern). Out-of-order matches mark the slot consumed and
// are skipped later; storage is compacted when the consumed prefix grows.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []envelope
	taken   []bool // parallel to pending: slot already consumed
	head    int    // first possibly-live slot
	failErr error  // sticky: revocation or rank death poisons the box
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return m.failErr
	}
	m.pending = append(m.pending, e)
	m.taken = append(m.taken, false)
	m.cond.Broadcast()
	return nil
}

// compactLocked drops the consumed prefix once it dominates the queue.
func (m *mailbox) compactLocked() {
	if m.head > 64 && m.head*2 > len(m.pending) {
		n := copy(m.pending, m.pending[m.head:])
		copy(m.taken, m.taken[m.head:])
		m.pending = m.pending[:n]
		m.taken = m.taken[:n]
		m.head = 0
	}
}

// take blocks until a message matching (source, tag) is available and
// removes it. Wildcards follow MPI: AnySource and/or AnyTag match anything,
// but among matching messages the earliest-queued wins (non-overtaking for a
// fixed source/tag pair).
func (m *mailbox) take(source, tag int) (envelope, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.failErr != nil {
			return envelope{}, m.failErr
		}
		for i := m.head; i < len(m.pending); i++ {
			if m.taken[i] {
				if i == m.head {
					m.head++
				}
				continue
			}
			e := m.pending[i]
			if (source == AnySource || e.source == source) && (tag == AnyTag || e.tag == tag) {
				m.taken[i] = true
				m.pending[i] = envelope{} // release payload reference
				if i == m.head {
					m.head++
				}
				m.compactLocked()
				return e, nil
			}
		}
		m.cond.Wait()
	}
}

// fail poisons the mailbox: every pending and future take (and put)
// returns err. The first failure wins; later ones are ignored.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	if m.failErr == nil {
		m.failErr = err
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *mailbox) revoke() { m.fail(ErrCommRevoked) }

// Status describes a received message, mirroring MPI_Status.
type Status struct {
	Source int
	Tag    int
}

// world is the shared state behind the goroutine backend: one mailbox per
// rank plus the context allocator, all in a single address space.
type world struct {
	boxes      []*mailbox // indexed by world rank
	ctxCounter int64      // allocator for derived-communicator contexts
}

// goEngine is one rank's handle on a goroutine-backend world. Delivery is
// a mailbox append; payloads move by reference.
type goEngine struct {
	w    *world
	self int // my world rank
}

func (g *goEngine) send(dest int, e envelope) error { return g.w.boxes[dest].put(e) }

func (g *goEngine) recv(source, efftag int) (envelope, error) {
	return g.w.boxes[g.self].take(source, efftag)
}

func (g *goEngine) allocCtx() (int, error) {
	return int(atomic.AddInt64(&g.w.ctxCounter, 1)) * ctxStride, nil
}

func (g *goEngine) sendCopies(int) bool { return false }

// ctxStride separates the effective-tag ranges of distinct communicator
// contexts. Every tag used on a communicator (user tags < internalTagBase,
// collective tags < internalTagBase+collTagWindow, the split tag) is below
// ctxStride, so contexts at multiples of ctxStride can never cross-deliver.
const ctxStride = 2 * internalTagBase

// Comm is a communicator: an ordered group of ranks that can exchange
// point-to-point messages and participate in collectives. A Comm value is
// per-rank (like an MPI_Comm handle held by one process): Rank reports the
// holder's rank within the group.
type Comm struct {
	eng     engine
	rank    int   // my rank in this communicator
	group   []int // communicator rank -> world rank
	ctxTag  int   // communication context offset; isolates comms from each other
	collSeq int   // per-rank collective sequence number (see collectives.go)
}

// Rank returns the calling rank's position in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

func (c *Comm) worldRank(r int) int { return c.group[r] }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("%w: %d (size %d)", ErrRankRange, r, len(c.group))
	}
	return nil
}

func (c *Comm) checkTag(tag int) error {
	if tag < 0 || tag >= internalTagBase {
		return fmt.Errorf("%w: %d", ErrTagRange, tag)
	}
	return nil
}

// effective tag folds the communicator context into the tag so two distinct
// communicators over the same ranks never cross-deliver.
func (c *Comm) efftag(tag int) int { return tag + c.ctxTag }

// Send delivers payload to rank dest with the given tag. On the goroutine
// backend payload slices are transferred by reference; on the process
// backend they are serialized over the transport. Either way receivers
// must treat received slices as read-only or copy them, exactly as a real
// MPI program treats its receive buffer as owned after MPI_Recv returns.
func (c *Comm) Send(dest, tag int, payload any) error {
	if err := c.checkRank(dest); err != nil {
		return err
	}
	if err := c.checkTag(tag); err != nil {
		return err
	}
	return c.sendInternal(dest, tag, payload)
}

// sendInternal bypasses the user tag range check for collective traffic.
func (c *Comm) sendInternal(dest, tag int, payload any) error {
	return c.eng.send(c.worldRank(dest), envelope{source: c.rank, tag: c.efftag(tag), payload: payload})
}

// Recv blocks until a message matching (source, tag) arrives and returns its
// payload. source may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(source, tag int) (any, Status, error) {
	if err := c.checkRecv(source, tag); err != nil {
		return nil, Status{}, err
	}
	return c.recvInternal(source, tag)
}

// checkRecv validates a receive's source and tag, either of which may be
// a wildcard.
func (c *Comm) checkRecv(source, tag int) error {
	if source != AnySource {
		if err := c.checkRank(source); err != nil {
			return err
		}
	}
	if tag != AnyTag {
		return c.checkTag(tag)
	}
	return nil
}

func (c *Comm) recvInternal(source, tag int) (any, Status, error) {
	et := tag
	if tag != AnyTag {
		et = c.efftag(tag)
	}
	e, err := c.eng.recv(source, et)
	if err != nil {
		return nil, Status{}, err
	}
	userTag := e.tag - c.ctxTag
	return e.payload, Status{Source: e.source, Tag: userTag}, nil
}

// RecvFloat64 receives a []float64 payload, enforcing the payload type.
func (c *Comm) RecvFloat64(source, tag int) ([]float64, Status, error) {
	p, st, err := c.Recv(source, tag)
	if err != nil {
		return nil, st, err
	}
	v, err := asFloat64s(p)
	return v, st, err
}

// recvFloat64 is recvInternal for the []float64 a collective expects.
func (c *Comm) recvFloat64(source, tag int) ([]float64, error) {
	p, _, err := c.recvInternal(source, tag)
	if err != nil {
		return nil, err
	}
	return asFloat64s(p)
}

func asFloat64s(p any) ([]float64, error) {
	v, ok := p.([]float64)
	if !ok {
		return nil, fmt.Errorf("%w: got %T, want []float64", ErrTypeMatch, p)
	}
	return v, nil
}

// Run starts an SPMD "job" of n ranks over a fresh world communicator and
// runs body on each rank in its own goroutine. It returns after every rank's
// body has returned. Panics in a rank are re-raised on the caller after all
// other ranks are revoked, so a deadlocked collective does not hang the
// test binary.
func Run(n int, body func(c *Comm)) {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: nonpositive world size %d", n))
	}
	w := &world{boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}

	var wg sync.WaitGroup
	panics := make(chan any, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					for _, b := range w.boxes {
						b.revoke()
					}
					panics <- p
				}
			}()
			body(&Comm{eng: &goEngine{w: w, self: rank}, rank: rank, group: group})
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Split partitions the communicator by color, ordering ranks within each new
// communicator by (key, old rank), mirroring MPI_Comm_split. Every rank of c
// must call Split. A color of -1 (Undefined) yields a nil communicator for
// that rank.
const Undefined = -1

// Split is collective over c.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// The exchange uses flat []int payloads — [color, key, rank] triples —
	// so the same code serializes over the process backend's wire codec.
	mine := []int{color, key, c.rank}

	// Gather all (color,key,rank) triples at rank 0; rank 0 allocates a
	// fresh communication context from the world and broadcasts the plan
	// as [ctx, c0,k0,r0, c1,k1,r1, ...].
	var all []int // 3 ints per member, indexed by arrival
	var ctx int
	if c.rank == 0 {
		all = make([]int, 0, 3*c.Size())
		all = append(all, mine...)
		for i := 1; i < c.Size(); i++ {
			p, _, err := c.recvInternal(AnySource, c.splitTag())
			if err != nil {
				return nil, err
			}
			all = append(all, p.([]int)...)
		}
		var err error
		if ctx, err = c.eng.allocCtx(); err != nil {
			return nil, err
		}
		plan := append([]int{ctx}, all...)
		for i := 1; i < c.Size(); i++ {
			if err := c.sendInternal(i, c.splitTag(), plan); err != nil {
				return nil, err
			}
		}
	} else {
		if err := c.sendInternal(0, c.splitTag(), mine); err != nil {
			return nil, err
		}
		p, _, err := c.recvInternal(0, c.splitTag())
		if err != nil {
			return nil, err
		}
		plan := p.([]int)
		ctx, all = plan[0], plan[1:]
	}

	if color == Undefined {
		return nil, nil
	}
	// Stable order: key, then old rank.
	type entry struct{ Color, Key, Rank int }
	var members []entry
	for i := 0; i+2 < len(all); i += 3 {
		e := entry{all[i], all[i+1], all[i+2]}
		if e.Color == color {
			members = append(members, e)
		}
	}
	slices.SortFunc(members, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Rank, b.Rank))
	})
	group := make([]int, len(members))
	myNew := -1
	for i, e := range members {
		group[i] = c.worldRank(e.Rank)
		if e.Rank == c.rank {
			myNew = i
		}
	}
	return &Comm{eng: c.eng, rank: myNew, group: group, ctxTag: ctx}, nil
}

// splitTag is the internal tag used by Split traffic; efftag folds in the
// per-communicator context so concurrent Splits on different communicators
// cannot cross-deliver.
func (c *Comm) splitTag() int { return internalTagBase + 1 }
