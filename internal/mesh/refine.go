package mesh

import (
	"fmt"
)

// This file implements uniform ("red") mesh refinement with field
// prolongation — the capability behind the paper's §2.2 scenario: "Upon
// observing that the flow fields are not converging as expected, the
// researcher may wish to introduce a new scheme for hierarchical mesh
// refinement." A refinement component can be attached mid-run: the old
// mesh component is swapped for the refined one and the field carried over
// through the prolongation operator.

// Weight is one interpolation contribution: coarse node Node with weight W.
type Weight struct {
	Node int
	W    float64
}

// Prolongation interpolates a coarse node field onto the refined mesh:
// fine node i receives Σ w·coarse[node] over Rows[i].
type Prolongation struct {
	Rows [][]Weight
}

// Apply interpolates a coarse field (length = coarse node count).
func (p *Prolongation) Apply(coarse []float64) []float64 {
	fine := make([]float64, len(p.Rows))
	for i, row := range p.Rows {
		var s float64
		for _, w := range row {
			s += w.W * coarse[w.Node]
		}
		fine[i] = s
	}
	return fine
}

// Refine performs one level of uniform refinement: every triangle becomes
// four triangles, every quad four quads; original nodes keep their indices,
// each unique edge gains a midpoint node, and each quad gains a center
// node. It returns the refined mesh and the prolongation operator.
//
// Cells with more than four nodes are not supported.
func Refine(m *Mesh) (*Mesh, *Prolongation, error) {
	coords := append([][2]float64(nil), m.Coords...)
	prolong := &Prolongation{}
	for i := 0; i < m.NumNodes(); i++ {
		prolong.Rows = append(prolong.Rows, []Weight{{Node: i, W: 1}})
	}

	type edge struct{ a, b int }
	mid := map[edge]int{}
	midpoint := func(a, b int) int {
		e := edge{a, b}
		if a > b {
			e = edge{b, a}
		}
		if id, ok := mid[e]; ok {
			return id
		}
		id := len(coords)
		coords = append(coords, [2]float64{
			(m.Coords[a][0] + m.Coords[b][0]) / 2,
			(m.Coords[a][1] + m.Coords[b][1]) / 2,
		})
		prolong.Rows = append(prolong.Rows, []Weight{{Node: a, W: 0.5}, {Node: b, W: 0.5}})
		mid[e] = id
		return id
	}

	var cells [][]int
	for ci, cell := range m.Cells {
		switch len(cell) {
		case 3:
			a, b, c := cell[0], cell[1], cell[2]
			ab, bc, ca := midpoint(a, b), midpoint(b, c), midpoint(c, a)
			cells = append(cells,
				[]int{a, ab, ca},
				[]int{ab, b, bc},
				[]int{ca, bc, c},
				[]int{ab, bc, ca},
			)
		case 4:
			a, b, c, d := cell[0], cell[1], cell[2], cell[3]
			ab, bc, cd, da := midpoint(a, b), midpoint(b, c), midpoint(c, d), midpoint(d, a)
			center := len(coords)
			coords = append(coords, [2]float64{
				(m.Coords[a][0] + m.Coords[b][0] + m.Coords[c][0] + m.Coords[d][0]) / 4,
				(m.Coords[a][1] + m.Coords[b][1] + m.Coords[c][1] + m.Coords[d][1]) / 4,
			})
			prolong.Rows = append(prolong.Rows, []Weight{
				{Node: a, W: 0.25}, {Node: b, W: 0.25}, {Node: c, W: 0.25}, {Node: d, W: 0.25},
			})
			cells = append(cells,
				[]int{a, ab, center, da},
				[]int{ab, b, bc, center},
				[]int{center, bc, c, cd},
				[]int{da, center, cd, d},
			)
		default:
			return nil, nil, fmt.Errorf("%w: refine cell %d with %d nodes", ErrMesh, ci, len(cell))
		}
	}
	fine, err := New(coords, cells)
	if err != nil {
		return nil, nil, err
	}
	return fine, prolong, nil
}
