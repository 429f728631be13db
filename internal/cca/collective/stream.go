package collective

import (
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/simd"
)

// This file is the scheduler's cross-process face: the accessors and
// byte-oriented pack/unpack the distributed collective port
// (repro/internal/dist/collective) needs to stream a Plan's pair messages
// as chunked bulk frames over the ORB. Everything here derives from the
// same pairSched offsets NewPlan computes, so two processes that exchange
// Side descriptors and build the same Plan agree exactly on every chunk's
// packed layout.

// Rebased returns the side with its cohort placed on consecutive world
// ranks base, base+1, …, base+P−1. Cross-process connections use it to put
// both sides into one synthetic world — provider cohort at 0..M−1,
// consumer cohort at M..M+N−1 — because each process's own world ranks are
// process-local and meaningless across the wire, and colliding ranks would
// turn genuine transfers into bogus rank-local copies.
func (s Side) Rebased(base int) Side {
	p := 0
	if s.Map != nil {
		p = s.Map.Ranks()
	}
	w := make([]int, p)
	for i := range w {
		w[i] = base + i
	}
	return Side{Map: s.Map, WorldRanks: w}
}

// RecvFrom returns the source world ranks the given destination world rank
// receives a message from (sorted; rank-local copies excluded).
func (p *Plan) RecvFrom(dstWorld int) []int {
	return append([]int(nil), p.recvFrom[dstWorld]...)
}

// PairStream is the packed message of one (source, destination) world-rank
// pair, addressable by element range so it can cross the wire in chunks.
// Element k of the stream is the k-th element of the buffer pairSched.pack
// would build; PackRangeBytes and UnpackBytes move any [lo,hi) window of
// that stream without materializing the whole message.
type PairStream struct {
	ps *pairSched
}

// Pair returns the stream for one (src, dst) world-rank pair, or ok=false
// when the plan moves no data between them.
func (p *Plan) Pair(srcWorld, dstWorld int) (PairStream, bool) {
	ps := p.runsByPair[[2]int{srcWorld, dstWorld}]
	if ps == nil {
		return PairStream{}, false
	}
	return PairStream{ps: ps}, true
}

// Total returns the stream's element count.
func (s PairStream) Total() int { return s.ps.total }

// runsOverlapping returns the run index window [i0,i1) intersecting packed
// elements [lo,hi).
func (ps *pairSched) runsOverlapping(lo, hi int) (int, int) {
	i0 := sort.Search(len(ps.offs), func(i int) bool { return ps.offs[i]+ps.runs[i].n > lo })
	i1 := sort.Search(len(ps.offs), func(i int) bool { return ps.offs[i] >= hi })
	return i0, i1
}

// forRunsWindow executes body over run indices [i0,i1), in parallel when
// the window's element count justifies it (same policy as forRuns).
func (ps *pairSched) forRunsWindow(i0, i1, elems int, body func(i int)) {
	if elems < packGrain || i1-i0 <= 1 {
		for i := i0; i < i1; i++ {
			body(i)
		}
		return
	}
	grain := (i1 - i0) * packGrain / elems
	if grain < 1 {
		grain = 1
	}
	par.For(i1-i0, grain, func(lo, hi int) {
		for i := i0 + lo; i < i0+hi; i++ {
			body(i)
		}
	})
}

// PackRangeBytes gathers elements [lo,hi) of the packed stream from local
// storage directly into dst as little-endian float64 bytes; len(dst) must
// be 8·(hi−lo). The provider-side chunk servant points dst at a
// transport.SharedBuf it splices into every subscriber's reply
// (orb.Encoder.AppendSharedFloat64s), so packing and marshaling are one
// copy. Fans out over the worker pool above packGrain.
func (s PairStream) PackRangeBytes(local []float64, lo, hi int, dst []byte) error {
	if lo < 0 || hi < lo || hi > s.ps.total {
		return fmt.Errorf("%w: chunk [%d,%d) of %d-element stream", ErrBuffer, lo, hi, s.ps.total)
	}
	if len(dst) != 8*(hi-lo) {
		return fmt.Errorf("%w: %dB destination for %d elements", ErrBuffer, len(dst), hi-lo)
	}
	ps := s.ps
	i0, i1 := ps.runsOverlapping(lo, hi)
	ps.forRunsWindow(i0, i1, hi-lo, func(i int) {
		r := ps.runs[i]
		pLo, pHi := ps.offs[i], ps.offs[i]+r.n
		if pLo < lo {
			pLo = lo
		}
		if pHi > hi {
			pHi = hi
		}
		n := pHi - pLo
		if n <= 0 {
			return
		}
		src := local[r.srcLocal+(pLo-ps.offs[i]):]
		out := dst[8*(pLo-lo):]
		simd.PackF64LE(out[:8*n], src[:n])
	})
	return nil
}

// UnpackBytes scatters raw — little-endian float64 bytes holding elements
// [lo, lo+len(raw)/8) of the packed stream — into destination storage.
// The consumer side points raw at the undecoded reply payload
// (orb.Decoder.RawFloat64s), so unmarshaling and unpacking are one copy.
func (s PairStream) UnpackBytes(raw []byte, lo int, out []float64) error {
	if len(raw)%8 != 0 {
		return fmt.Errorf("%w: %dB payload is not a float64 array", ErrBuffer, len(raw))
	}
	hi := lo + len(raw)/8
	if lo < 0 || hi > s.ps.total {
		return fmt.Errorf("%w: chunk [%d,%d) of %d-element stream", ErrBuffer, lo, hi, s.ps.total)
	}
	ps := s.ps
	i0, i1 := ps.runsOverlapping(lo, hi)
	ps.forRunsWindow(i0, i1, hi-lo, func(i int) {
		r := ps.runs[i]
		pLo, pHi := ps.offs[i], ps.offs[i]+r.n
		if pLo < lo {
			pLo = lo
		}
		if pHi > hi {
			pHi = hi
		}
		n := pHi - pLo
		if n <= 0 {
			return
		}
		dst := out[r.dstLocal+(pLo-ps.offs[i]):]
		src := raw[8*(pLo-lo):]
		simd.UnpackF64LE(dst[:n], src[:8*n])
	})
	return nil
}
