package mpi

import (
	"fmt"
	"slices"
)

// Collective tag management. Collectives on a communicator must be invoked
// in the same order by every rank (the standard MPI requirement); each rank
// then advances its local sequence number identically, so a sequence-derived
// tag is globally consistent without extra communication. The window bounds
// the tag range; reuse after collTagWindow collectives is safe because
// point-to-point ordering guarantees all traffic of collective k has been
// matched before collective k+collTagWindow starts between any pair.
const (
	collTagFirst  = internalTagBase + 16
	collTagWindow = 8192
)

func (c *Comm) nextCollTag() int {
	t := collTagFirst + c.collSeq%collTagWindow
	c.collSeq++
	return t
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a binomial-tree reduce to rank 0 followed by a
// binomial-tree release.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	n, r := c.Size(), c.rank
	// Reduce phase: children report in.
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			if err := c.sendInternal(r-mask, tag, nil); err != nil {
				return err
			}
			break
		}
		if r+mask < n {
			if _, _, err := c.recvInternal(r+mask, tag); err != nil {
				return err
			}
		}
	}
	// Release phase: binomial broadcast from rank 0. Each rank receives
	// once from its parent (rank minus its lowest set bit), then forwards
	// to its children.
	lowbit := 1
	if r != 0 {
		for r&lowbit == 0 {
			lowbit <<= 1
		}
		if _, _, err := c.recvInternal(r-lowbit, tag); err != nil {
			return err
		}
	} else {
		for lowbit < n {
			lowbit <<= 1
		}
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		if r+mask < n {
			if err := c.sendInternal(r+mask, tag, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Bcast broadcasts root's v to every rank using a binomial tree and returns
// it on every rank. Non-root callers pass nil (their argument is ignored).
// Every rank owns its result: on root it is v itself, elsewhere a copy no
// other rank holds; root may overwrite v once Bcast returns.
func (c *Comm) Bcast(root int, v []float64) ([]float64, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	n := c.Size()
	if n == 1 {
		return v, nil
	}
	// Work in root-relative rank space so any root uses the same tree.
	vr := (c.rank - root + n) % n
	// Receive from parent (the rank that differs in my lowest set bit).
	if vr != 0 {
		mask := 1
		for vr&mask == 0 {
			mask <<= 1
		}
		parent := ((vr - mask) + root) % n
		p, _, err := c.recvInternal(parent, tag)
		if err != nil {
			return nil, err
		}
		v = p
	}
	// Forward to children.
	lowbit := 1
	if vr != 0 {
		for vr&lowbit == 0 {
			lowbit <<= 1
		}
	} else {
		highest := 1
		for highest < n {
			highest <<= 1
		}
		lowbit = highest
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		child := vr + mask
		if child < n {
			if err := c.sendInternal((child+root)%n, tag, v); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// AllreduceFloat64 combines every rank's contribution with op and returns
// the result on every rank, by recursive doubling (Thakur, Rabenseifner &
// Gropp, "Optimization of Collective Communication Operations in MPICH",
// 2005): at stage k each rank swaps its partial result with rank^2ᵏ and
// both compute op(lower-ranked operand, higher-ranked operand), so the two
// directions of every exchange overlap. When the size n is not a power of
// two, with rem = n − 2^⌊log₂ n⌋, ranks below 2·rem first fold in pairs —
// each even rank hands its contribution to the odd rank above it, which
// carries the pair through the stages — and the odd ranks hand the final
// result back at the end.
//
// Every rank evaluates the same combine tree, so all ranks hold
// bit-identical results on every backend. For a power-of-two size that
// tree is the balanced ((a0⊕a1)⊕(a2⊕a3))⊕((a4⊕a5)⊕(a6⊕a7))…; other sizes
// pair the ranks differently.
//
// Ownership: the result belongs to the caller alone — no peer holds a
// reference to it — and no peer reads contrib after AllreduceFloat64
// returns, so the caller may mutate either at once, on every backend.
func (c *Comm) AllreduceFloat64(contrib []float64, op Op) ([]float64, error) {
	tag := c.nextCollTag()
	n, r := c.Size(), c.rank
	if n == 1 {
		return slices.Clone(contrib), nil
	}
	p := partial{c: c, op: op, tag: tag, acc: contrib}
	pof2 := 1
	for 2*pof2 <= n {
		pof2 <<= 1
	}
	rem := n - pof2
	folded := r < 2*rem // r takes part in the pairwise fold
	newrank := r - rem
	if folded {
		if r%2 == 0 {
			if err := p.send(r + 1); err != nil {
				return nil, err
			}
			newrank = -1
		} else {
			if err := p.combine(r - 1); err != nil {
				return nil, err
			}
			newrank = r / 2
		}
	}
	for mask := 1; newrank >= 0 && mask < pof2; mask <<= 1 {
		peer := newrank ^ mask
		if peer < rem {
			peer = 2*peer + 1
		} else {
			peer += rem
		}
		if err := p.send(peer); err != nil {
			return nil, err
		}
		if err := p.combine(peer); err != nil {
			return nil, err
		}
	}
	switch {
	case folded && r%2 == 0:
		v, _, err := c.recvInternal(r+1, tag)
		return v, err
	case folded:
		if err := p.send(r - 1); err != nil {
			return nil, err
		}
	}
	return p.acc, nil
}

// partial is one rank's running result inside AllreduceFloat64. Until its
// first combine, acc is the caller's contribution (owned false): it may be
// read and sent, never mutated.
type partial struct {
	c     *Comm
	op    Op
	tag   int
	acc   []float64
	owned bool
}

// send delivers a copy of acc to dest; the rank keeps acc.
func (p *partial) send(dest int) error {
	return p.c.sendInternal(dest, p.tag, p.acc)
}

// combine receives src's partial result and folds it with acc in rank
// order, op(lower, higher). The received operand is this rank's alone —
// every send copies — so when it is the lower operand it absorbs the
// result without a copy.
func (p *partial) combine(src int) error {
	theirs, _, err := p.c.recvInternal(src, p.tag)
	if err != nil {
		return err
	}
	if src < p.c.rank {
		p.acc, err = p.op.combine(theirs, p.acc)
	} else {
		if !p.owned {
			p.acc = slices.Clone(p.acc)
		}
		p.acc, err = p.op.combine(p.acc, theirs)
	}
	p.owned = true
	return err
}

// AllreduceScalar reduces a single float64 across ranks. Every call is one
// round of messages, and on small frames the round, not the payload, is
// the cost: values that are ready together belong in one AllreduceFloat64
// (mesh.GlobalDot's batched inner products, hydro's statistics), which
// reduces each element through the same combine tree, so bit for bit as
// separate scalar calls would.
func (c *Comm) AllreduceScalar(x float64, op Op) (float64, error) {
	v, err := c.AllreduceFloat64([]float64{x}, op)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// Alltoall sends parts[i] of every rank to rank i and returns the parts
// received, indexed by source rank. Every part must be a []float64; each
// returned element is a []float64 the caller owns: a copy no other rank
// holds, or, at the caller's own rank, its own part itself (as Bcast's
// root gets v back). The caller may overwrite its other parts once
// Alltoall returns.
//
// The parts are typed []any, not [][]float64, only because the benchmark
// module (benchmark/spmd.go) calls Alltoall with []any and asserts the
// results back to []float64; a part of any other type fails with
// ErrTypeMatch before anything is sent.
func (c *Comm) Alltoall(parts []any) ([]any, error) {
	if len(parts) != c.Size() {
		return nil, fmt.Errorf("%w: alltoall with %d parts for %d ranks", ErrCountMatch, len(parts), c.Size())
	}
	for i, p := range parts {
		if _, ok := p.([]float64); !ok {
			return nil, fmt.Errorf("%w: alltoall part %d is %T, want []float64", ErrTypeMatch, i, p)
		}
	}
	tag := c.nextCollTag()
	out := make([]any, c.Size())
	out[c.rank] = parts[c.rank]
	for i := 0; i < c.Size(); i++ {
		if i == c.rank {
			continue
		}
		if err := c.sendInternal(i, tag, parts[i].([]float64)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Size()-1; i++ {
		p, st, err := c.recvInternal(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[st.Source] = p
	}
	return out, nil
}
