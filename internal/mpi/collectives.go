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

// Bcast broadcasts root's payload to every rank using a binomial tree and
// returns the payload on every rank. Non-root callers pass nil (their
// argument is ignored). Payloads are shared by reference: receivers must not
// mutate a broadcast slice.
func (c *Comm) Bcast(root int, payload any) (any, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	n := c.Size()
	if n == 1 {
		return payload, nil
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
		payload = p
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
			if err := c.sendInternal((child+root)%n, tag, payload); err != nil {
				return nil, err
			}
		}
	}
	return payload, nil
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
		return c.recvFloat64(r+1, tag)
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

// send delivers acc to dest while keeping it: an engine that moves
// payloads by reference gets a copy, which the receiver then owns.
func (p *partial) send(dest int) error {
	payload := p.acc
	if !p.c.eng.sendCopies(p.c.worldRank(dest)) {
		payload = slices.Clone(payload)
	}
	return p.c.sendInternal(dest, p.tag, payload)
}

// combine receives src's partial result and folds it with acc in rank
// order, op(lower, higher). The received operand is this rank's alone —
// freshly decoded, or a copy its sender gave away — so when it is the
// lower operand it absorbs the result without a copy.
func (p *partial) combine(src int) error {
	theirs, err := p.c.recvFloat64(src, p.tag)
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

// AllreduceScalar reduces a single float64 across ranks; the workhorse of
// dot products and residual norms in the solver components.
func (c *Comm) AllreduceScalar(x float64, op Op) (float64, error) {
	v, err := c.AllreduceFloat64([]float64{x}, op)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// Alltoall exchanges parts[i] of every rank with rank i; returns the slice
// of payloads received, indexed by source rank.
func (c *Comm) Alltoall(parts []any) ([]any, error) {
	if len(parts) != c.Size() {
		return nil, fmt.Errorf("%w: alltoall with %d parts for %d ranks", ErrCountMatch, len(parts), c.Size())
	}
	tag := c.nextCollTag()
	out := make([]any, c.Size())
	out[c.rank] = parts[c.rank]
	for i := 0; i < c.Size(); i++ {
		if i == c.rank {
			continue
		}
		if err := c.sendInternal(i, tag, parts[i]); err != nil {
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
