package array

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements distributed-data descriptors: the "mapping of data
// (or processes participating)" that §6.3 of the CCA paper says a programmer
// must specify when creating a collective port. A DataMap describes how a
// 1-D global index space of length N is partitioned over P ranks. (A
// multidimensional field distributes its flattened natural order; the hydro
// and collective-port code uses this convention throughout.)
//
// All maps reduce to a canonical run-length form (Runs) that the collective
// port redistribution planner intersects pairwise, so arbitrary source and
// destination distributions compose — "collective ports are defined
// generally enough to allow data to be distributed arbitrarily in the
// connected components."

// ErrMap reports an invalid distribution descriptor.
var ErrMap = errors.New("array: invalid data map")

// IndexRange is a half-open range [Lo, Hi) of global indices.
type IndexRange struct{ Lo, Hi int }

// Len returns the number of indices in the range.
func (r IndexRange) Len() int { return r.Hi - r.Lo }

// Intersect returns the overlap of two ranges (possibly empty).
func (r IndexRange) Intersect(o IndexRange) IndexRange {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return IndexRange{lo, hi}
}

// Run maps a contiguous global range to a contiguous local range on a rank:
// global index Global.Lo+k lives at local index Local+k on Rank.
type Run struct {
	Global IndexRange
	Rank   int
	Local  int
}

// DataMap describes a distribution of a global index space over ranks.
type DataMap interface {
	// GlobalLen returns the global element count N.
	GlobalLen() int
	// Ranks returns the number of participating ranks P.
	Ranks() int
	// LocalLen returns the number of elements owned by rank r.
	LocalLen(r int) int
	// Runs returns the full distribution in canonical run form: sorted by
	// Global.Lo, non-overlapping, exactly covering [0, N).
	Runs() []Run
	// String describes the map for diagnostics.
	String() string
}

// Validate checks that a DataMap's runs exactly tile [0,N) and respect rank
// and local-length invariants. It is used by tests and by the collective
// port planner to reject malformed custom maps.
func Validate(m DataMap) error {
	runs := m.Runs()
	n, p := m.GlobalLen(), m.Ranks()
	if p <= 0 {
		return fmt.Errorf("%w: %d ranks", ErrMap, p)
	}
	next := 0
	type localIval struct{ lo, hi int }
	perRank := make([][]localIval, p)
	for i, r := range runs {
		if r.Global.Lo != next {
			return fmt.Errorf("%w: run %d starts at %d, want %d", ErrMap, i, r.Global.Lo, next)
		}
		if r.Global.Hi < r.Global.Lo {
			return fmt.Errorf("%w: run %d is inverted", ErrMap, i)
		}
		if r.Rank < 0 || r.Rank >= p {
			return fmt.Errorf("%w: run %d names rank %d of %d", ErrMap, i, r.Rank, p)
		}
		if r.Local < 0 {
			return fmt.Errorf("%w: run %d has negative local offset", ErrMap, i)
		}
		perRank[r.Rank] = append(perRank[r.Rank], localIval{r.Local, r.Local + r.Global.Len()})
		next = r.Global.Hi
	}
	if next != n {
		return fmt.Errorf("%w: runs cover [0,%d), want [0,%d)", ErrMap, next, n)
	}
	// Per rank, the local intervals must exactly tile [0, LocalLen(r)) in
	// some order (local ordering is free to permute global ordering).
	for r := 0; r < p; r++ {
		ivals := perRank[r]
		sort.Slice(ivals, func(i, j int) bool { return ivals[i].lo < ivals[j].lo })
		at := 0
		for _, iv := range ivals {
			if iv.lo != at {
				return fmt.Errorf("%w: rank %d local storage has gap/overlap at %d", ErrMap, r, iv.lo)
			}
			at = iv.hi
		}
		if at != m.LocalLen(r) {
			return fmt.Errorf("%w: rank %d owns %d in runs but LocalLen=%d", ErrMap, r, at, m.LocalLen(r))
		}
	}
	return nil
}

// BlockMap distributes N elements over P ranks in near-equal contiguous
// blocks: the standard distribution of the CCA paper's parallel numerical
// components.
type BlockMap struct {
	N, P int
}

// NewBlockMap constructs a block distribution.
func NewBlockMap(n, p int) BlockMap { return BlockMap{N: n, P: p} }

// GlobalLen implements DataMap.
func (m BlockMap) GlobalLen() int { return m.N }

// Ranks implements DataMap.
func (m BlockMap) Ranks() int { return m.P }

// Range returns the global range owned by rank r.
func (m BlockMap) Range(r int) IndexRange {
	base, rem := m.N/m.P, m.N%m.P
	var lo int
	if r < rem {
		lo = r * (base + 1)
		return IndexRange{lo, lo + base + 1}
	}
	lo = rem*(base+1) + (r-rem)*base
	return IndexRange{lo, lo + base}
}

// LocalLen implements DataMap.
func (m BlockMap) LocalLen(r int) int { return m.Range(r).Len() }

// Runs implements DataMap.
func (m BlockMap) Runs() []Run {
	runs := make([]Run, 0, m.P)
	for r := 0; r < m.P; r++ {
		g := m.Range(r)
		if g.Len() == 0 {
			continue
		}
		runs = append(runs, Run{Global: g, Rank: r, Local: 0})
	}
	return runs
}

func (m BlockMap) String() string { return fmt.Sprintf("block(n=%d,p=%d)", m.N, m.P) }

// CyclicMap distributes N elements over P ranks in blocks of size B dealt
// round-robin (block-cyclic; B=1 is pure cyclic). ScaLAPACK-style.
type CyclicMap struct {
	N, P, B int
}

// NewCyclicMap constructs a block-cyclic distribution with block size b.
func NewCyclicMap(n, p, b int) CyclicMap {
	if b <= 0 {
		b = 1
	}
	return CyclicMap{N: n, P: p, B: b}
}

// GlobalLen implements DataMap.
func (m CyclicMap) GlobalLen() int { return m.N }

// Ranks implements DataMap.
func (m CyclicMap) Ranks() int { return m.P }

// LocalLen implements DataMap.
func (m CyclicMap) LocalLen(r int) int {
	full := m.N / (m.P * m.B) // complete rounds
	n := full * m.B
	rem := m.N - full*m.P*m.B // leftover elements in the final partial round
	start := r * m.B
	if rem > start {
		extra := rem - start
		if extra > m.B {
			extra = m.B
		}
		n += extra
	}
	return n
}

// Runs implements DataMap.
func (m CyclicMap) Runs() []Run {
	var runs []Run
	local := make([]int, m.P)
	for lo := 0; lo < m.N; lo += m.B {
		hi := lo + m.B
		if hi > m.N {
			hi = m.N
		}
		r := (lo / m.B) % m.P
		runs = append(runs, Run{Global: IndexRange{lo, hi}, Rank: r, Local: local[r]})
		local[r] += hi - lo
	}
	return runs
}

func (m CyclicMap) String() string { return fmt.Sprintf("cyclic(n=%d,p=%d,b=%d)", m.N, m.P, m.B) }

// SerialMap places all N elements on a single rank: the descriptor of a
// serial component's side of a serial↔parallel collective connection, whose
// semantics §6.3 likens to broadcast/gather/scatter.
type SerialMap struct {
	N int
}

// NewSerialMap constructs a single-rank distribution.
func NewSerialMap(n int) SerialMap { return SerialMap{N: n} }

// GlobalLen implements DataMap.
func (m SerialMap) GlobalLen() int { return m.N }

// Ranks implements DataMap.
func (m SerialMap) Ranks() int { return 1 }

// LocalLen implements DataMap.
func (m SerialMap) LocalLen(r int) int { return m.N }

// Runs implements DataMap.
func (m SerialMap) Runs() []Run {
	if m.N == 0 {
		return nil
	}
	return []Run{{Global: IndexRange{0, m.N}, Rank: 0, Local: 0}}
}

func (m SerialMap) String() string { return fmt.Sprintf("serial(n=%d)", m.N) }

// IrregularMap is an explicit distribution: rank r owns the global index
// sets described by its ranges, in order. It describes mesh-partitioned
// data where ownership follows a partitioner rather than a formula.
type IrregularMap struct {
	n      int
	p      int
	runs   []Run
	locals []int
}

// NewIrregularMap builds a map from per-rank ordered global ranges.
// ranges[r] lists the global ranges owned by rank r, concatenated in local
// order. The ranges must exactly tile [0, n) across all ranks.
func NewIrregularMap(n int, ranges [][]IndexRange) (*IrregularMap, error) {
	p := len(ranges)
	m := &IrregularMap{n: n, p: p, locals: make([]int, p)}
	for r, rs := range ranges {
		local := 0
		for _, g := range rs {
			m.runs = append(m.runs, Run{Global: g, Rank: r, Local: local})
			local += g.Len()
		}
		m.locals[r] = local
	}
	sort.Slice(m.runs, func(i, j int) bool { return m.runs[i].Global.Lo < m.runs[j].Global.Lo })
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// NewRunsMap reconstructs a map directly from canonical runs. It is the
// decode side of a wire-serialized DataMap: a distribution crosses a
// process boundary as its run list (the only thing the collective planner
// consumes), and the receiver rebuilds a map whose canonical form — hence
// whose redistribution schedule — is identical to the sender's. The rank
// count is the largest rank named plus one; the runs are validated as an
// exact tiling of [0, n).
func NewRunsMap(n int, runs []Run) (*IrregularMap, error) {
	p := 0
	for _, r := range runs {
		if r.Rank >= p {
			p = r.Rank + 1
		}
	}
	if p == 0 {
		p = 1 // an empty map still needs one (empty) rank
	}
	m := &IrregularMap{n: n, p: p, runs: append([]Run(nil), runs...), locals: make([]int, p)}
	sort.Slice(m.runs, func(i, j int) bool { return m.runs[i].Global.Lo < m.runs[j].Global.Lo })
	for _, r := range m.runs {
		if r.Rank >= 0 && r.Rank < p {
			m.locals[r.Rank] += r.Global.Len()
		}
	}
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// GlobalLen implements DataMap.
func (m *IrregularMap) GlobalLen() int { return m.n }

// Ranks implements DataMap.
func (m *IrregularMap) Ranks() int { return m.p }

// LocalLen implements DataMap.
func (m *IrregularMap) LocalLen(r int) int { return m.locals[r] }

// Runs implements DataMap.
func (m *IrregularMap) Runs() []Run { return m.runs }

func (m *IrregularMap) String() string {
	return fmt.Sprintf("irregular(n=%d,p=%d,runs=%d)", m.n, m.p, len(m.runs))
}
