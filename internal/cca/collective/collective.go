package collective

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/array"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Errors reported by collective connections.
var (
	ErrMismatch = errors.New("collective: sides are incompatible")
	ErrBuffer   = errors.New("collective: buffer length mismatch")
)

// transferTag is the user tag carrying collective-port payloads.
const transferTag = 7100

// Side is one endpoint of a collective connection: the data distribution of
// a parallel component plus the world rank hosting each of its cohort
// ranks.
type Side struct {
	// Map describes how the global index space is distributed over the
	// component's cohort.
	Map array.DataMap
	// WorldRanks maps cohort rank i to its world (communicator) rank.
	WorldRanks []int
}

// Serial builds the Side of a serial component: all data on one world rank.
func Serial(n, worldRank int) Side {
	return Side{Map: array.NewSerialMap(n), WorldRanks: []int{worldRank}}
}

// Block builds a block-distributed Side over the given world ranks.
func Block(n int, worldRanks []int) Side {
	return Side{Map: array.NewBlockMap(n, len(worldRanks)), WorldRanks: append([]int(nil), worldRanks...)}
}

// Cyclic builds a block-cyclic Side over the given world ranks.
func Cyclic(n, blockSize int, worldRanks []int) Side {
	return Side{Map: array.NewCyclicMap(n, len(worldRanks), blockSize), WorldRanks: append([]int(nil), worldRanks...)}
}

func (s Side) validate() error {
	if s.Map == nil {
		return fmt.Errorf("%w: nil data map", ErrMismatch)
	}
	if err := array.Validate(s.Map); err != nil {
		return err
	}
	if len(s.WorldRanks) != s.Map.Ranks() {
		return fmt.Errorf("%w: map has %d ranks but %d world ranks given", ErrMismatch, s.Map.Ranks(), len(s.WorldRanks))
	}
	seen := map[int]bool{}
	for _, w := range s.WorldRanks {
		if w < 0 {
			return fmt.Errorf("%w: negative world rank %d", ErrMismatch, w)
		}
		if seen[w] {
			return fmt.Errorf("%w: world rank %d appears twice in one side", ErrMismatch, w)
		}
		seen[w] = true
	}
	return nil
}

// run is one contiguous piece of the redistribution schedule.
type run struct {
	srcWorld, dstWorld int
	srcLocal, dstLocal int
	n                  int
}

// packGrain is the element-count threshold below which pack/unpack stays
// serial; larger transfers copy runs in parallel on the shared worker pool.
const packGrain = 8192

// pairSched is the precomputed schedule for one (source, destination) world
// rank pair: its runs, each run's offset into the packed message, and the
// message's total element count. Computing offsets at plan time keeps the
// per-Transfer work to pure copies, which parallelize cleanly.
type pairSched struct {
	runs  []run
	offs  []int
	total int
}

// forRuns executes body over the schedule's run indices, in parallel when
// the total element count justifies it. Runs are disjoint, so chunking by
// run index is safe.
func (ps *pairSched) forRuns(body func(i int)) {
	if ps.total < packGrain || len(ps.runs) == 1 {
		for i := range ps.runs {
			body(i)
		}
		return
	}
	// Grain in run counts, sized so one chunk moves ~packGrain elements.
	grain := len(ps.runs) * packGrain / ps.total
	if grain < 1 {
		grain = 1
	}
	par.For(len(ps.runs), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// pack gathers this pair's runs from local storage into buf, grown to the
// message length, and returns the message. Send copies, so one buf serves
// every destination of a Transfer.
func (ps *pairSched) pack(buf, local []float64) []float64 {
	buf = slices.Grow(buf[:0], ps.total)[:ps.total]
	ps.forRuns(func(i int) {
		r := ps.runs[i]
		copy(buf[ps.offs[i]:ps.offs[i]+r.n], local[r.srcLocal:r.srcLocal+r.n])
	})
	return buf
}

// unpack scatters a received message into destination storage.
func (ps *pairSched) unpack(buf, out []float64) error {
	if len(buf) != ps.total {
		return fmt.Errorf("%w: message has %d elements, schedule wants %d", ErrBuffer, len(buf), ps.total)
	}
	ps.forRuns(func(i int) {
		r := ps.runs[i]
		copy(out[r.dstLocal:r.dstLocal+r.n], buf[ps.offs[i]:ps.offs[i]+r.n])
	})
	return nil
}

// copyLocal performs the rank-local runs directly from local to out.
func (ps *pairSched) copyLocal(local, out []float64) {
	ps.forRuns(func(i int) {
		r := ps.runs[i]
		copy(out[r.dstLocal:r.dstLocal+r.n], local[r.srcLocal:r.srcLocal+r.n])
	})
}

// Plan is the precomputed message schedule of one collective connection.
// Plans are immutable and safe for concurrent Transfer calls on disjoint
// communicators.
type Plan struct {
	src, dst Side
	runs     []run
	// matched marks the §6.3 fast path: both sides have identical maps and
	// co-located ranks, so every run is rank-local.
	matched bool
	// sendTo[w] lists the destination world ranks w transmits to (sorted);
	// recvFrom[w] the source world ranks w receives from.
	sendTo   map[int][]int
	recvFrom map[int][]int
	// runsByPair[(s,d)] is the packed-message schedule for one rank pair,
	// with per-run offsets precomputed at plan time.
	runsByPair map[[2]int]*pairSched
}

// NewPlan validates both sides and computes the redistribution schedule.
func NewPlan(src, dst Side) (*Plan, error) {
	if err := src.validate(); err != nil {
		return nil, err
	}
	if err := dst.validate(); err != nil {
		return nil, err
	}
	if src.Map.GlobalLen() != dst.Map.GlobalLen() {
		return nil, fmt.Errorf("%w: source has %d elements, destination %d (cardinality mismatch)",
			ErrMismatch, src.Map.GlobalLen(), dst.Map.GlobalLen())
	}
	p := &Plan{src: src, dst: dst,
		sendTo: map[int][]int{}, recvFrom: map[int][]int{}, runsByPair: map[[2]int]*pairSched{}}

	// Merge-intersect the two run lists over the global index space.
	sruns, druns := src.Map.Runs(), dst.Map.Runs()
	i, j := 0, 0
	for i < len(sruns) && j < len(druns) {
		sr, dr := sruns[i], druns[j]
		ov := sr.Global.Intersect(dr.Global)
		if ov.Len() > 0 {
			r := run{
				srcWorld: src.WorldRanks[sr.Rank],
				dstWorld: dst.WorldRanks[dr.Rank],
				srcLocal: sr.Local + (ov.Lo - sr.Global.Lo),
				dstLocal: dr.Local + (ov.Lo - dr.Global.Lo),
				n:        ov.Len(),
			}
			p.runs = append(p.runs, r)
		}
		if sr.Global.Hi <= dr.Global.Hi {
			i++
		}
		if dr.Global.Hi <= sr.Global.Hi {
			j++
		}
	}

	p.matched = true
	for _, r := range p.runs {
		if r.srcWorld != r.dstWorld {
			p.matched = false
		}
		key := [2]int{r.srcWorld, r.dstWorld}
		ps := p.runsByPair[key]
		if ps == nil {
			ps = &pairSched{}
			p.runsByPair[key] = ps
		}
		ps.runs = append(ps.runs, r)
		ps.offs = append(ps.offs, ps.total)
		ps.total += r.n
	}
	pairSeen := map[[2]int]bool{}
	for key := range p.runsByPair {
		if key[0] == key[1] || pairSeen[key] {
			continue
		}
		pairSeen[key] = true
		p.sendTo[key[0]] = append(p.sendTo[key[0]], key[1])
		p.recvFrom[key[1]] = append(p.recvFrom[key[1]], key[0])
	}
	for _, m := range []map[int][]int{p.sendTo, p.recvFrom} {
		for k := range m {
			sort.Ints(m[k])
		}
	}
	return p, nil
}

// Matched reports whether the connection hits the no-redistribution fast
// path (identical maps on co-located ranks).
func (p *Plan) Matched() bool { return p.matched }

// Messages reports the number of distinct inter-rank messages one Transfer
// sends (0 on the matched fast path).
func (p *Plan) Messages() int {
	n := 0
	for key := range p.runsByPair {
		if key[0] != key[1] {
			n++
		}
	}
	return n
}

// GlobalLen returns the connection's global element count.
func (p *Plan) GlobalLen() int { return p.src.Map.GlobalLen() }

// SrcLocalLen returns the source-side chunk length expected from the given
// world rank, or 0 if the rank is not in the source side.
func (p *Plan) SrcLocalLen(worldRank int) int {
	for i, w := range p.src.WorldRanks {
		if w == worldRank {
			return p.src.Map.LocalLen(i)
		}
	}
	return 0
}

// DstLocalLen returns the destination-side chunk length owned by the given
// world rank, or 0 if the rank is not in the destination side.
func (p *Plan) DstLocalLen(worldRank int) int {
	for i, w := range p.dst.WorldRanks {
		if w == worldRank {
			return p.dst.Map.LocalLen(i)
		}
	}
	return 0
}

// Transfer executes the schedule from the calling rank's perspective: it
// packs and sends this rank's outgoing runs, performs rank-local copies
// directly, and receives and unpacks incoming runs into out.
//
// local must have length SrcLocalLen(rank) (nil when 0); out must have
// length DstLocalLen(rank) (nil when 0). Every participating world rank
// must call Transfer on the same communicator; ranks in neither side need
// not call at all.
func (p *Plan) Transfer(comm *mpi.Comm, local, out []float64) error {
	me := comm.Rank()
	if want := p.SrcLocalLen(me); len(local) != want {
		return fmt.Errorf("%w: rank %d source chunk %d, want %d", ErrBuffer, me, len(local), want)
	}
	if want := p.DstLocalLen(me); len(out) != want {
		return fmt.Errorf("%w: rank %d destination buffer %d, want %d", ErrBuffer, me, len(out), want)
	}

	// Rank-local runs: straight copies (the §6.2-style zero-cost path),
	// chunked over the worker pool when the volume justifies it.
	if ps := p.runsByPair[[2]int{me, me}]; ps != nil {
		ps.copyLocal(local, out)
	}
	// Pack and send one message per destination.
	var buf []float64
	for _, d := range p.sendTo[me] {
		buf = p.runsByPair[[2]int{me, d}].pack(buf, local)
		if err := comm.Send(d, transferTag, buf); err != nil {
			return err
		}
	}
	// Receive and unpack.
	for _, s := range p.recvFrom[me] {
		msg, _, err := comm.Recv(s, transferTag)
		if err != nil {
			return err
		}
		if err := p.runsByPair[[2]int{s, me}].unpack(msg, out); err != nil {
			return fmt.Errorf("rank %d from %d: %w", me, s, err)
		}
	}
	return nil
}

// TransferForced is Transfer with the matched-map fast path disabled: even
// rank-local runs round-trip through the mailbox. It exists for the E4
// ablation quantifying what the fast path is worth.
func (p *Plan) TransferForced(comm *mpi.Comm, local, out []float64) error {
	me := comm.Rank()
	if want := p.SrcLocalLen(me); len(local) != want {
		return fmt.Errorf("%w: rank %d source chunk %d, want %d", ErrBuffer, me, len(local), want)
	}
	if want := p.DstLocalLen(me); len(out) != want {
		return fmt.Errorf("%w: rank %d destination buffer %d, want %d", ErrBuffer, me, len(out), want)
	}
	// Self-runs become a real message.
	var buf []float64
	if ps := p.runsByPair[[2]int{me, me}]; ps != nil {
		buf = ps.pack(buf, local)
		if err := comm.Send(me, transferTag, buf); err != nil {
			return err
		}
	}
	for _, d := range p.sendTo[me] {
		buf = p.runsByPair[[2]int{me, d}].pack(buf, local)
		if err := comm.Send(d, transferTag, buf); err != nil {
			return err
		}
	}
	recvFrom := p.recvFrom[me]
	if p.runsByPair[[2]int{me, me}] != nil {
		recvFrom = append([]int{me}, recvFrom...)
	}
	for _, s := range recvFrom {
		msg, _, err := comm.Recv(s, transferTag)
		if err != nil {
			return err
		}
		if err := p.runsByPair[[2]int{s, me}].unpack(msg, out); err != nil {
			return fmt.Errorf("rank %d from %d: %w", me, s, err)
		}
	}
	return nil
}
