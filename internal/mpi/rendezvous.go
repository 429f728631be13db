package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// Rendezvous control-channel frame kinds. The rendezvous service speaks
// the same transport framing as the rank mesh but a disjoint kind range,
// so a crossed wire fails loudly instead of parsing.
//
//	join   := rvJoin  [uvarint rank] [uvarint size] [string addr]
//	world  := rvWorld [uvarint gen] [uvarint size] size × [string addr]
//	ready  := rvReady
//	go     := rvGo
//	ctxreq := rvCtxReq
//	ctxrep := rvCtxRep [uvarint ctx]
//	bye    := rvBye
//	err    := rvErr   [string message]
//
// strings are [uvarint n][n bytes].
const (
	rvJoin   byte = 16
	rvWorld  byte = 17
	rvReady  byte = 18
	rvGo     byte = 19
	rvCtxReq byte = 20
	rvCtxRep byte = 21
	rvBye    byte = 22
	rvErr    byte = 23
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, m := binary.Uvarint(b)
	if m <= 0 || n > uint64(len(b)-m) {
		return "", nil, fmt.Errorf("%w: truncated string", ErrWire)
	}
	return string(b[m : m+int(n)]), b[m+int(n):], nil
}

// appendJoin encodes a join frame.
func appendJoin(rank, size uint64, addr string) []byte {
	b := binary.AppendUvarint([]byte{rvJoin}, rank)
	b = binary.AppendUvarint(b, size)
	return appendString(b, addr)
}

// parseJoin decodes a join frame's body (after the kind byte). The values
// are the peer's claims, unchecked against the service's world.
func parseJoin(b []byte) (rank, size uint64, addr string, err error) {
	rank, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("%w: truncated join rank", ErrWire)
	}
	b = b[n:]
	size, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("%w: truncated join size", ErrWire)
	}
	if addr, b, err = readString(b[n:]); err != nil {
		return 0, 0, "", err
	}
	if len(b) != 0 {
		return 0, 0, "", fmt.Errorf("%w: %d trailing bytes after join", ErrWire, len(b))
	}
	return rank, size, addr, nil
}

// appendWorld encodes a world frame.
func appendWorld(gen uint64, addrs []string) []byte {
	b := binary.AppendUvarint([]byte{rvWorld}, gen)
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendString(b, a)
	}
	return b
}

// parseWorld decodes a world frame's body (after the kind byte). The
// address count is bounded by the bytes present (each string carries at
// least its length byte) before anything is sized from it.
func parseWorld(b []byte) (gen uint64, addrs []string, err error) {
	gen, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated world gen", ErrWire)
	}
	b = b[n:]
	sz, n := binary.Uvarint(b)
	if n <= 0 || sz > uint64(len(b)-n) {
		return 0, nil, fmt.Errorf("%w: truncated world size", ErrWire)
	}
	b = b[n:]
	addrs = make([]string, sz)
	for i := range addrs {
		if addrs[i], b, err = readString(b); err != nil {
			return 0, nil, err
		}
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after world", ErrWire, len(b))
	}
	return gen, addrs, nil
}

// rvMember is one rank's control connection within the rendezvous.
type rvMember struct {
	rank int
	addr string
	conn transport.Conn
	form *rvFormation
}

// rvFormation is one complete generation of the world: size members that
// were announced to each other and are barriering toward rvGo.
type rvFormation struct {
	gen     uint64
	members []*rvMember
	ready   int
}

// Rendezvous is the cohort-formation service: ranks join with their listen
// address, the service broadcasts the rank↔address map once all Size ranks
// of a generation are present, barriers them through ready/go, and then
// stays available on the same control connections to allocate globally
// unique derived-communicator contexts (Split/Dup) and to observe rank
// departure.
//
// Formation is generational: after a cohort forms, a fresh set of Size
// joins — for example the survivors of a rank death plus its relaunched
// replacement — forms the next generation. The context allocator is global
// across generations, so communicators of a dead world can never collide
// with the new one.
type Rendezvous struct {
	l    transport.Listener
	size int

	mu      sync.Mutex
	joining map[int]*rvMember // forming generation, by rank
	gen     uint64            // completed formations
	ctx     int64             // context allocator (shared by all generations)
	closed  bool

	formedCh chan uint64 // signaled (non-blocking) per completed formation
}

// NewRendezvous starts a rendezvous service for cohorts of the given size
// on l. Close the returned service to release the listener.
func NewRendezvous(l transport.Listener, size int) *Rendezvous {
	r := &Rendezvous{l: l, size: size, joining: make(map[int]*rvMember), formedCh: make(chan uint64, 16)}
	go r.acceptLoop()
	return r
}

// Formed returns a channel that receives the generation number each time a
// world forms — test and launcher instrumentation.
func (r *Rendezvous) Formed() <-chan uint64 { return r.formedCh }

// Generations reports how many worlds have formed so far.
func (r *Rendezvous) Generations() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Close shuts the service down. Live cohorts keep running — only
// formation of new generations and context allocation stop.
func (r *Rendezvous) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.l.Close()
}

func (r *Rendezvous) acceptLoop() {
	for {
		c, err := r.l.Accept()
		if err != nil {
			return
		}
		go r.serve(c)
	}
}

// serve handles one control connection for its whole life: join,
// formation, then ctx allocation until bye or disconnect.
func (r *Rendezvous) serve(c transport.Conn) {
	m, err := r.handleJoin(c)
	if err != nil {
		reply := appendString([]byte{rvErr}, err.Error())
		_ = c.Send(reply)
		c.Close()
		return
	}
	for {
		f, err := c.Recv()
		if err != nil {
			r.drop(m)
			c.Close()
			return
		}
		kind := byte(0)
		if len(f) > 0 {
			kind = f[0]
		}
		transport.ReleaseFrame(f)
		switch kind {
		case rvReady:
			r.markReady(m)
		case rvCtxReq:
			r.mu.Lock()
			r.ctx++
			ctx := r.ctx
			r.mu.Unlock()
			if err := c.Send(binary.AppendUvarint([]byte{rvCtxRep}, uint64(ctx))); err != nil {
				r.drop(m)
				c.Close()
				return
			}
		case rvBye:
			r.drop(m)
			c.Close()
			return
		default:
			r.drop(m)
			c.Close()
			return
		}
	}
}

// handleJoin validates a join frame and registers the member; when the
// member completes a generation, the world map is broadcast to all of it.
func (r *Rendezvous) handleJoin(c transport.Conn) (*rvMember, error) {
	f, err := c.Recv()
	if err != nil {
		return nil, err
	}
	defer transport.ReleaseFrame(f)
	if len(f) < 1 || f[0] != rvJoin {
		return nil, fmt.Errorf("%w: expected join frame", ErrWire)
	}
	rank, size, addr, err := parseJoin(f[1:])
	if err != nil {
		return nil, err
	}
	if int(size) != r.size {
		return nil, fmt.Errorf("mpi: rendezvous expects world size %d, rank joined with %d", r.size, size)
	}
	if rank >= uint64(r.size) {
		return nil, fmt.Errorf("%w: join rank %d (size %d)", ErrRankRange, rank, r.size)
	}

	m := &rvMember{rank: int(rank), addr: addr, conn: c}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrCommRevoked
	}
	if _, taken := r.joining[m.rank]; taken {
		r.mu.Unlock()
		return nil, fmt.Errorf("mpi: rank %d already joined this generation", m.rank)
	}
	r.joining[m.rank] = m
	var form *rvFormation
	if len(r.joining) == r.size {
		r.gen++
		form = &rvFormation{gen: r.gen, members: make([]*rvMember, r.size)}
		for rk, mem := range r.joining {
			form.members[rk] = mem
			mem.form = form
		}
		r.joining = make(map[int]*rvMember)
	}
	r.mu.Unlock()

	if form != nil {
		addrs := make([]string, len(form.members))
		for i, mem := range form.members {
			addrs[i] = mem.addr
		}
		world := appendWorld(form.gen, addrs)
		for _, mem := range form.members {
			if err := mem.conn.Send(world); err != nil {
				// The member's own serve loop observes the broken conn and
				// drops it; peers fail mesh formation and rejoin.
				continue
			}
		}
		select {
		case r.formedCh <- form.gen:
		default:
		}
	}
	return m, nil
}

// markReady counts the formation barrier; the last ready releases everyone
// with rvGo.
func (r *Rendezvous) markReady(m *rvMember) {
	r.mu.Lock()
	form := m.form
	if form == nil {
		r.mu.Unlock()
		return
	}
	form.ready++
	fire := form.ready == len(form.members)
	r.mu.Unlock()
	if fire {
		for _, mem := range form.members {
			_ = mem.conn.Send([]byte{rvGo})
		}
	}
}

// drop unregisters a member whose control connection ended. If its
// generation was still forming, the rank slot frees for a rejoin.
func (r *Rendezvous) drop(m *rvMember) {
	r.mu.Lock()
	if r.joining[m.rank] == m {
		delete(r.joining, m.rank)
	}
	r.mu.Unlock()
}
