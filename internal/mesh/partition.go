package mesh

import (
	"fmt"
	"sort"
)

// Partitioner assigns each mesh node to one of p parts. Implementations
// trade cut quality against speed; both are exercised by experiment E5's
// parallel hydro pipeline.
type Partitioner interface {
	// PartitionNodes returns part[i] ∈ [0,p) for every node i.
	PartitionNodes(m *Mesh, p int) []int
	// Name identifies the method.
	Name() string
}

// NewPartitioner returns the named partitioner ("rcb" or "greedy").
func NewPartitioner(name string) (Partitioner, error) {
	switch name {
	case "", "rcb":
		return RCB{}, nil
	case "greedy":
		return Greedy{}, nil
	default:
		return nil, fmt.Errorf("mesh: unknown partitioner %q (want rcb or greedy)", name)
	}
}

// RCB is recursive coordinate bisection: sort along the longest axis of the
// current subdomain's bounding box and split the node set in (weighted)
// half. The classic geometric partitioner of 1990s DOE codes.
type RCB struct{}

// Name implements Partitioner.
func (RCB) Name() string { return "rcb" }

// PartitionNodes implements Partitioner.
func (RCB) PartitionNodes(m *Mesh, p int) []int {
	part := make([]int, m.NumNodes())
	ids := make([]int, m.NumNodes())
	for i := range ids {
		ids[i] = i
	}
	rcbRecurse(m, ids, 0, p, part)
	return part
}

// rcbRecurse assigns parts [base, base+count) to the node set ids.
func rcbRecurse(m *Mesh, ids []int, base, count int, part []int) {
	if count <= 1 || len(ids) == 0 {
		for _, id := range ids {
			part[id] = base
		}
		return
	}
	// Longest axis of this subset's bounding box.
	min := [2]float64{m.Coords[ids[0]][0], m.Coords[ids[0]][1]}
	max := min
	for _, id := range ids {
		for d := 0; d < 2; d++ {
			if m.Coords[id][d] < min[d] {
				min[d] = m.Coords[id][d]
			}
			if m.Coords[id][d] > max[d] {
				max[d] = m.Coords[id][d]
			}
		}
	}
	axis := 0
	if max[1]-min[1] > max[0]-min[0] {
		axis = 1
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := m.Coords[ids[i]], m.Coords[ids[j]]
		if a[axis] != b[axis] {
			return a[axis] < b[axis]
		}
		return ids[i] < ids[j]
	})
	// Split node count proportionally to the part counts on each side.
	leftParts := count / 2
	cut := len(ids) * leftParts / count
	rcbRecurse(m, ids[:cut], base, leftParts, part)
	rcbRecurse(m, ids[cut:], base+leftParts, count-leftParts, part)
}

// Greedy grows parts by breadth-first search from seed nodes: part k claims
// nodes until it reaches its quota, then the next unclaimed node seeds part
// k+1. Produces connected parts on connected meshes.
type Greedy struct{}

// Name implements Partitioner.
func (Greedy) Name() string { return "greedy" }

// PartitionNodes implements Partitioner.
func (Greedy) PartitionNodes(m *Mesh, p int) []int {
	n := m.NumNodes()
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	assigned := 0
	nextSeed := 0
	for k := 0; k < p; k++ {
		quota := (n - assigned) / (p - k)
		if quota == 0 && assigned < n {
			quota = 1
		}
		// Find an unassigned seed.
		for nextSeed < n && part[nextSeed] != -1 {
			nextSeed++
		}
		if nextSeed >= n {
			break
		}
		queue := []int{nextSeed}
		part[nextSeed] = k
		taken := 1
		for len(queue) > 0 && taken < quota {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range m.NodeNeighbors(cur) {
				if part[nb] == -1 {
					part[nb] = k
					taken++
					queue = append(queue, nb)
					if taken >= quota {
						break
					}
				}
			}
		}
		// If BFS stalled (disconnected region), sweep for strays.
		for taken < quota {
			found := -1
			for i := nextSeed; i < n; i++ {
				if part[i] == -1 {
					found = i
					break
				}
			}
			if found < 0 {
				break
			}
			part[found] = k
			taken++
			queue = append(queue, found)
			// Keep growing from the new island.
			for len(queue) > 0 && taken < quota {
				cur := queue[0]
				queue = queue[1:]
				for _, nb := range m.NodeNeighbors(cur) {
					if part[nb] == -1 {
						part[nb] = k
						taken++
						queue = append(queue, nb)
						if taken >= quota {
							break
						}
					}
				}
			}
		}
		assigned += taken
	}
	// Any leftovers (rounding) go to the last part.
	for i := range part {
		if part[i] == -1 {
			part[i] = p - 1
		}
	}
	return part
}

// EdgeCut counts mesh edges whose endpoints lie in different parts: the
// partition-quality metric reported by experiment E5's ablation.
func EdgeCut(m *Mesh, part []int) int {
	cut := 0
	for i := 0; i < m.NumNodes(); i++ {
		for _, j := range m.NodeNeighbors(i) {
			if j > i && part[i] != part[j] {
				cut++
			}
		}
	}
	return cut
}
