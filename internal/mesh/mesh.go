// Package mesh provides the unstructured-mesh substrate behind the CCA
// paper's motivating application (§2.1): CHAD-style "hybrid unstructured
// meshes" whose nonlocal communication is "encapsulated in gather/scatter
// routines using MPI". It supplies mesh construction, graph partitioning
// (recursive coordinate bisection and greedy growth), and the halo-exchange
// plans that parallel mesh components use to keep ghost values current.
package mesh

import (
	"errors"
	"fmt"
	"sort"
)

// ErrMesh reports invalid mesh construction input.
var ErrMesh = errors.New("mesh: invalid mesh")

// Mesh is an unstructured 2-D mesh: nodes with coordinates and cells
// (elements) listing their nodes counterclockwise. Mixed element types
// (triangles and quads) are allowed, matching CHAD's "hybrid" meshes.
type Mesh struct {
	// Coords holds node coordinates.
	Coords [][2]float64
	// Cells lists each cell's node indices.
	Cells [][]int

	// nodeAdj[i] lists the nodes sharing an edge with node i (sorted).
	nodeAdj [][]int
}

// New validates and indexes a mesh.
func New(coords [][2]float64, cells [][]int) (*Mesh, error) {
	m := &Mesh{Coords: coords, Cells: cells}
	for ci, cell := range cells {
		if len(cell) < 3 {
			return nil, fmt.Errorf("%w: cell %d has %d nodes", ErrMesh, ci, len(cell))
		}
		for _, n := range cell {
			if n < 0 || n >= len(coords) {
				return nil, fmt.Errorf("%w: cell %d references node %d of %d", ErrMesh, ci, n, len(coords))
			}
		}
	}
	m.buildAdjacency()
	return m, nil
}

func (m *Mesh) buildAdjacency() {
	n := len(m.Coords)
	adjSet := make([]map[int]struct{}, n)
	for _, cell := range m.Cells {
		k := len(cell)
		for i, a := range cell {
			b := cell[(i+1)%k]
			if adjSet[a] == nil {
				adjSet[a] = map[int]struct{}{}
			}
			if adjSet[b] == nil {
				adjSet[b] = map[int]struct{}{}
			}
			adjSet[a][b] = struct{}{}
			adjSet[b][a] = struct{}{}
		}
	}
	m.nodeAdj = make([][]int, n)
	for i, s := range adjSet {
		for j := range s {
			m.nodeAdj[i] = append(m.nodeAdj[i], j)
		}
		sort.Ints(m.nodeAdj[i])
	}
}

// NumNodes returns the node count.
func (m *Mesh) NumNodes() int { return len(m.Coords) }

// NumCells returns the cell count.
func (m *Mesh) NumCells() int { return len(m.Cells) }

// NodeNeighbors returns the edge-adjacent nodes of node i (sorted, shared).
func (m *Mesh) NodeNeighbors(i int) []int { return m.nodeAdj[i] }

// BoundaryNodes returns the sorted node indices lying on the mesh boundary:
// nodes incident to an edge used by exactly one cell.
func (m *Mesh) BoundaryNodes() []int {
	type edge struct{ a, b int }
	count := map[edge]int{}
	for _, cell := range m.Cells {
		k := len(cell)
		for i := range cell {
			a, b := cell[i], cell[(i+1)%k]
			if a > b {
				a, b = b, a
			}
			count[edge{a, b}]++
		}
	}
	onBoundary := map[int]bool{}
	for e, c := range count {
		if c == 1 {
			onBoundary[e.a] = true
			onBoundary[e.b] = true
		}
	}
	out := make([]int, 0, len(onBoundary))
	for n := range onBoundary {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// StructuredQuad builds an (nx+1)×(ny+1)-node structured quadrilateral mesh
// over the unit square, represented unstructured (the common CHAD test
// configuration). Node (ix, iy) has index iy*(nx+1)+ix.
func StructuredQuad(nx, ny int) *Mesh {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("mesh: StructuredQuad(%d,%d)", nx, ny))
	}
	coords := make([][2]float64, (nx+1)*(ny+1))
	for iy := 0; iy <= ny; iy++ {
		for ix := 0; ix <= nx; ix++ {
			coords[iy*(nx+1)+ix] = [2]float64{float64(ix) / float64(nx), float64(iy) / float64(ny)}
		}
	}
	cells := make([][]int, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			a := iy*(nx+1) + ix
			cells = append(cells, []int{a, a + 1, a + nx + 2, a + nx + 1})
		}
	}
	m, err := New(coords, cells)
	if err != nil {
		panic("mesh: StructuredQuad: " + err.Error()) // unreachable by construction
	}
	return m
}

// TriangulatedRect builds a triangulated mesh of the unit square with
// 2·nx·ny triangles (each quad split along its diagonal).
func TriangulatedRect(nx, ny int) *Mesh {
	q := StructuredQuad(nx, ny)
	cells := make([][]int, 0, 2*nx*ny)
	for _, c := range q.Cells {
		cells = append(cells, []int{c[0], c[1], c[2]}, []int{c[0], c[2], c[3]})
	}
	m, err := New(q.Coords, cells)
	if err != nil {
		panic("mesh: TriangulatedRect: " + err.Error())
	}
	return m
}

// Entry is one assembly triplet over global node indices.
type Entry struct {
	Row, Col int
	Val      float64
}
