package mesh

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

// This file implements the gather/scatter layer the paper's §2.1 describes:
// "encapsulation of nonlocal communication in gather/scatter routines using
// the Message Passing Interface". A Decomposition gives each rank its owned
// nodes plus a ghost layer; an exchange refreshes ghost values from their
// owners before each local stencil application.

// haloTag is the user-level tag reserved for halo traffic.
const haloTag = 7001

// Decomposition is one rank's view of a node-partitioned mesh: owned nodes
// first, then ghost nodes, in a compact local index space.
type Decomposition struct {
	M    *Mesh
	Part []int // global node -> owning rank
	Rank int
	P    int

	// Owned lists this rank's global node ids, sorted ascending.
	Owned []int
	// Ghosts lists the global ids of off-rank nodes adjacent to owned
	// nodes, sorted ascending. Ghost k occupies local index len(Owned)+k.
	Ghosts []int
	// g2l maps global node id -> local index for owned and ghost nodes.
	g2l map[int]int

	// sendIdx[q] lists local indices of owned nodes that rank q ghosts.
	sendIdx map[int][]int
	// recvIdx[q] lists local (ghost) indices filled by rank q, in the same
	// order q produces them.
	recvIdx map[int][]int
	// neighbors is the sorted set of ranks this rank exchanges with.
	neighbors []int
}

// Decompose builds rank's view of the partition part (as produced by a
// Partitioner with p parts) of mesh m.
func Decompose(m *Mesh, part []int, p, rank int) (*Decomposition, error) {
	if len(part) != m.NumNodes() {
		return nil, fmt.Errorf("%w: partition of %d nodes for mesh with %d", ErrMesh, len(part), m.NumNodes())
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrMesh, rank, p)
	}
	d := &Decomposition{M: m, Part: part, Rank: rank, P: p, g2l: map[int]int{},
		sendIdx: map[int][]int{}, recvIdx: map[int][]int{}}

	for i, r := range part {
		if r < 0 || r >= p {
			return nil, fmt.Errorf("%w: node %d assigned to rank %d of %d", ErrMesh, i, r, p)
		}
		if r == rank {
			d.Owned = append(d.Owned, i)
		}
	}
	for li, g := range d.Owned {
		d.g2l[g] = li
	}
	// Ghosts: off-rank neighbours of owned nodes.
	ghostSet := map[int]bool{}
	for _, g := range d.Owned {
		for _, nb := range m.NodeNeighbors(g) {
			if part[nb] != rank {
				ghostSet[nb] = true
			}
		}
	}
	for g := range ghostSet {
		d.Ghosts = append(d.Ghosts, g)
	}
	sort.Ints(d.Ghosts)
	for k, g := range d.Ghosts {
		d.g2l[g] = len(d.Owned) + k
	}
	// Receive lists: ghosts grouped by owner, ascending global id (both
	// sides sort by global id, so orders agree without negotiation).
	for k, g := range d.Ghosts {
		q := part[g]
		d.recvIdx[q] = append(d.recvIdx[q], len(d.Owned)+k)
	}
	// Send lists: owned nodes that appear in some other rank's ghost set,
	// i.e. owned nodes adjacent to a node owned by q.
	sendSet := map[int]map[int]bool{} // q -> set of owned global ids
	for _, g := range d.Owned {
		for _, nb := range m.NodeNeighbors(g) {
			q := part[nb]
			if q == rank {
				continue
			}
			if sendSet[q] == nil {
				sendSet[q] = map[int]bool{}
			}
			sendSet[q][g] = true
		}
	}
	for q, set := range sendSet {
		ids := make([]int, 0, len(set))
		for g := range set {
			ids = append(ids, g)
		}
		sort.Ints(ids)
		for _, g := range ids {
			d.sendIdx[q] = append(d.sendIdx[q], d.g2l[g])
		}
	}
	nbSet := map[int]bool{}
	for q := range d.sendIdx {
		nbSet[q] = true
	}
	for q := range d.recvIdx {
		nbSet[q] = true
	}
	for q := range nbSet {
		d.neighbors = append(d.neighbors, q)
	}
	sort.Ints(d.neighbors)
	return d, nil
}

// NumOwned returns the count of locally owned nodes.
func (d *Decomposition) NumOwned() int { return len(d.Owned) }

// NumLocal returns owned + ghost count, the length of a local field.
func (d *Decomposition) NumLocal() int { return len(d.Owned) + len(d.Ghosts) }

// Neighbors returns the ranks this rank exchanges halos with.
func (d *Decomposition) Neighbors() []int { return d.neighbors }

// LocalIndex maps a global node id to its local index, or -1 if the node is
// neither owned nor ghosted here.
func (d *Decomposition) LocalIndex(global int) int {
	if li, ok := d.g2l[global]; ok {
		return li
	}
	return -1
}

// Exchange refreshes the ghost entries of field (length NumLocal) from
// their owning ranks over comm. This is the paper's gather (pack owned
// values for each neighbour) / scatter (unpack into ghost slots) step.
func (d *Decomposition) Exchange(comm *mpi.Comm, field []float64) error {
	if len(field) != d.NumLocal() {
		return fmt.Errorf("%w: field length %d, want %d", ErrMesh, len(field), d.NumLocal())
	}
	// Gather + send to every neighbour first (nonblocking semantics:
	// mailbox delivery never blocks), then receive. Send copies, so one
	// scratch slice serves every neighbour.
	most := 0
	for _, idx := range d.sendIdx {
		most = max(most, len(idx))
	}
	buf := make([]float64, most)
	for _, q := range d.neighbors {
		idx := d.sendIdx[q]
		if len(idx) == 0 {
			continue
		}
		for i, li := range idx {
			buf[i] = field[li]
		}
		if err := comm.Send(q, haloTag, buf[:len(idx)]); err != nil {
			return err
		}
	}
	for _, q := range d.neighbors {
		idx := d.recvIdx[q]
		if len(idx) == 0 {
			continue
		}
		buf, _, err := comm.Recv(q, haloTag)
		if err != nil {
			return err
		}
		if len(buf) != len(idx) {
			return fmt.Errorf("%w: halo from %d has %d values, want %d", ErrMesh, q, len(buf), len(idx))
		}
		for i, li := range idx {
			field[li] = buf[i]
		}
	}
	return nil
}

// LocalMatrix restricts global assembly entries to this rank: rows owned
// here (renumbered 0..NumOwned), columns over the local owned+ghost space.
// Entries whose row is off-rank are skipped; an entry whose column is
// neither owned nor ghosted is an error (the operator's stencil must be
// contained in one halo layer).
func (d *Decomposition) LocalMatrix(entries []Entry) (*linalg.CSR, error) {
	var local []linalg.Triplet
	for _, e := range entries {
		if d.Part[e.Row] != d.Rank {
			continue
		}
		col := d.LocalIndex(e.Col)
		if col < 0 {
			return nil, fmt.Errorf("%w: entry (%d,%d) reaches beyond the halo", ErrMesh, e.Row, e.Col)
		}
		local = append(local, linalg.Triplet{Row: d.g2l[e.Row], Col: col, Val: e.Val})
	}
	return linalg.NewCSR(d.NumOwned(), d.NumLocal(), local)
}

// DistOperator is a distributed linear operator: apply = halo exchange +
// local sparse matvec. It implements linalg.Operator over owned-length
// vectors, so the serial Krylov solvers run unchanged inside an SPMD
// component — the design §6.3's collective ports assume.
type DistOperator struct {
	D     *Decomposition
	Comm  *mpi.Comm
	Local *linalg.CSR // NumOwned × NumLocal

	work []float64 // owned+ghost scratch
}

// NewDistOperator builds a distributed operator from global assembly
// entries.
func NewDistOperator(d *Decomposition, comm *mpi.Comm, entries []Entry) (*DistOperator, error) {
	loc, err := d.LocalMatrix(entries)
	if err != nil {
		return nil, err
	}
	return &DistOperator{D: d, Comm: comm, Local: loc, work: make([]float64, d.NumLocal())}, nil
}

// Rows implements linalg.Operator.
func (op *DistOperator) Rows() int { return op.D.NumOwned() }

// Apply implements linalg.Operator: y = A x with ghost refresh.
func (op *DistOperator) Apply(x, y []float64) error {
	if len(x) != op.D.NumOwned() || len(y) != op.D.NumOwned() {
		return fmt.Errorf("%w: apply x=%d y=%d owned=%d", ErrMesh, len(x), len(y), op.D.NumOwned())
	}
	copy(op.work[:op.D.NumOwned()], x)
	if err := op.D.Exchange(op.Comm, op.work); err != nil {
		return err
	}
	return op.Local.Apply(op.work, y)
}

// GlobalDot returns the parallel inner products for the Krylov solvers
// over comm: dot sums a local product and reduces it; dots takes every
// pair's local product and reduces them all in one AllreduceFloat64. Each
// element goes through the same combine tree as a one-element reduction,
// so dots gives dot's bits pair by pair. firstErr reports the first
// reduction error. A failed reduction (a peer rank died) makes dot, and
// every element of dots, NaN, which the solvers report as a breakdown; a
// caller whose solve fails returns firstErr() in its place when non-nil.
func GlobalDot(comm *mpi.Comm) (dot linalg.Dot, dots linalg.Dots, firstErr func() error) {
	var first error
	var local []float64
	dots = func(out []float64, a, b [][]float64) {
		local = local[:0]
		for i := range out {
			local = append(local, linalg.DotPar(a[i], b[i]))
		}
		global, err := comm.AllreduceFloat64(local, mpi.Sum)
		if err != nil {
			if first == nil {
				first = err
			}
			for i := range out {
				out[i] = math.NaN()
			}
			return
		}
		copy(out, global)
	}
	dot = func(a, b []float64) float64 {
		global, err := comm.AllreduceScalar(linalg.DotPar(a, b), mpi.Sum)
		if err != nil {
			if first == nil {
				first = err
			}
			return math.NaN()
		}
		return global
	}
	return dot, dots, func() error { return first }
}
