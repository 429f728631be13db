package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	// ErrSplitRange reports a Split color or key that a float64 cannot
	// carry exactly: one with |x| > 2⁵³.
	ErrSplitRange = errors.New("mpi: split color or key out of range")
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
// rank, and recv takes from the owning rank's mailbox. Every engine keeps
// one ownership rule: send copies the payload before it returns, so the
// sender may reuse it at once and the receiver owns what it takes.
// The collective algorithms in collectives.go are written purely against
// Comm's send/recv internals, so they run unchanged over every engine:
// the goroutine backend (goEngine, one address space) and the process
// backend (procWorld, frames over the multiplexed transport).
type engine interface {
	// send delivers a copy of e to world rank dest. e.source is the
	// sender's rank in the communicator the message belongs to; e.tag is
	// the effective (context-folded) tag.
	send(dest int, e envelope) error
	// recv blocks until a message matching (source, efftag) is in this
	// rank's mailbox and removes it. Wildcards follow mailbox.take.
	recv(source, efftag int) (envelope, error)
	// allocCtx returns a fresh communicator context offset, unique across
	// the whole world for the lifetime of the job.
	allocCtx() (int, error)
}

// envelope is a single in-flight message.
type envelope struct {
	source  int
	tag     int
	payload []float64
}

// clone is the copy an engine makes of a payload it delivers in memory: a
// fresh slice, never nil, as the wire decoder also returns. (The
// make-then-copy form compiles to one allocation that skips zeroing.)
func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
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
// a mailbox append of a copy of the payload.
type goEngine struct {
	w    *world
	self int // my world rank
}

func (g *goEngine) send(dest int, e envelope) error {
	e.payload = clone(e.payload)
	return g.w.boxes[dest].put(e)
}

func (g *goEngine) recv(source, efftag int) (envelope, error) {
	return g.w.boxes[g.self].take(source, efftag)
}

func (g *goEngine) allocCtx() (int, error) {
	return int(atomic.AddInt64(&g.w.ctxCounter, 1)) * ctxStride, nil
}

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

// Send delivers a copy of v to rank dest with the given tag. The copy is
// made before Send returns, on every backend, so the caller may overwrite
// v at once; the receiver owns the slice Recv gives it.
func (c *Comm) Send(dest, tag int, v []float64) error {
	if err := c.checkRank(dest); err != nil {
		return err
	}
	if err := c.checkTag(tag); err != nil {
		return err
	}
	return c.sendInternal(dest, tag, v)
}

// sendInternal bypasses the user tag range check for collective traffic.
func (c *Comm) sendInternal(dest, tag int, v []float64) error {
	return c.eng.send(c.worldRank(dest), envelope{source: c.rank, tag: c.efftag(tag), payload: v})
}

// Recv blocks until a message matching (source, tag) arrives and returns its
// payload, which the caller owns. source may be AnySource and tag may be
// AnyTag.
func (c *Comm) Recv(source, tag int) ([]float64, Status, error) {
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

func (c *Comm) recvInternal(source, tag int) ([]float64, Status, error) {
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

// Split is collective over c. A color or key with |x| > 2⁵³ fails it with
// ErrSplitRange on every rank.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// The exchange carries [color, key, rank] triples as float64, the one
	// payload kind. An out-of-range color or key is never sent: its rank
	// sends a NaN color instead, so rank 0 fails the Split for everyone and
	// no rank is left waiting.
	mine := []float64{float64(color), float64(key), float64(c.rank)}
	if !splitExact(color) || !splitExact(key) {
		mine[0] = math.NaN()
	}

	// Gather all triples at rank 0; rank 0 allocates a fresh communication
	// context from the world and broadcasts the plan as
	// [ctx, c0,k0,r0, c1,k1,r1, ...], with ctx NaN when a triple is marked.
	var plan []float64
	if c.rank == 0 {
		plan = make([]float64, 1, 1+3*c.Size())
		plan = append(plan, mine...)
		for i := 1; i < c.Size(); i++ {
			p, _, err := c.recvInternal(AnySource, c.splitTag())
			if err != nil {
				return nil, err
			}
			plan = append(plan, p...)
		}
		plan[0] = math.NaN()
		if !slices.ContainsFunc(plan[1:], math.IsNaN) {
			ctx, err := c.eng.allocCtx()
			if err != nil {
				return nil, err
			}
			plan[0] = float64(ctx)
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.sendInternal(i, c.splitTag(), plan); err != nil {
				return nil, err
			}
		}
	} else {
		if err := c.sendInternal(0, c.splitTag(), mine); err != nil {
			return nil, err
		}
		var err error
		if plan, _, err = c.recvInternal(0, c.splitTag()); err != nil {
			return nil, err
		}
	}
	if math.IsNaN(plan[0]) {
		return nil, fmt.Errorf("%w: color %d, key %d on rank %d", ErrSplitRange, color, key, c.rank)
	}
	ctx, all := int(plan[0]), plan[1:]

	if color == Undefined {
		return nil, nil
	}
	// Stable order: key, then old rank.
	type entry struct{ Color, Key, Rank int }
	var members []entry
	for i := 0; i+2 < len(all); i += 3 {
		e := entry{int(all[i]), int(all[i+1]), int(all[i+2])}
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

// splitExact reports whether x survives the round trip through float64.
func splitExact(x int) bool { return -1<<53 <= int64(x) && int64(x) <= 1<<53 }

// splitTag is the internal tag used by Split traffic; efftag folds in the
// per-communicator context so concurrent Splits on different communicators
// cannot cross-deliver.
func (c *Comm) splitTag() int { return internalTagBase + 1 }
