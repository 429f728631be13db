package mesh

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestStructuredQuadCounts(t *testing.T) {
	m := StructuredQuad(3, 2)
	if m.NumNodes() != 4*3 || m.NumCells() != 6 {
		t.Fatalf("nodes=%d cells=%d", m.NumNodes(), m.NumCells())
	}
	// Interior node (1,1) = index 5 has 4 edge neighbours.
	if nb := m.NodeNeighbors(5); len(nb) != 4 {
		t.Errorf("interior neighbours = %v", nb)
	}
	// Corner node 0 has 2 edge neighbours.
	if nb := m.NodeNeighbors(0); len(nb) != 2 {
		t.Errorf("corner neighbours = %v", nb)
	}
}

func TestTriangulatedRect(t *testing.T) {
	m := TriangulatedRect(2, 2)
	if m.NumCells() != 8 {
		t.Fatalf("cells = %d", m.NumCells())
	}
	for _, c := range m.Cells {
		if len(c) != 3 {
			t.Fatalf("non-triangle cell %v", c)
		}
	}
}

func TestNewRejectsBadCells(t *testing.T) {
	coords := [][2]float64{{0, 0}, {1, 0}, {0, 1}}
	if _, err := New(coords, [][]int{{0, 1}}); !errors.Is(err, ErrMesh) {
		t.Errorf("short cell err = %v", err)
	}
	if _, err := New(coords, [][]int{{0, 1, 7}}); !errors.Is(err, ErrMesh) {
		t.Errorf("bad node err = %v", err)
	}
}

func TestBoundaryNodes(t *testing.T) {
	m := StructuredQuad(3, 3)
	b := m.BoundaryNodes()
	// 4x4 nodes, interior is 2x2, so 16-4 = 12 boundary nodes.
	if len(b) != 12 {
		t.Fatalf("boundary count = %d, want 12", len(b))
	}
	interior := map[int]bool{5: true, 6: true, 9: true, 10: true}
	for _, n := range b {
		if interior[n] {
			t.Errorf("interior node %d reported as boundary", n)
		}
	}
}

func TestGraphLaplacianSymmetricSPDish(t *testing.T) {
	m := StructuredQuad(5, 5)
	entries := graphLaplacianEntries(m)
	// Build a dense check of symmetry.
	n := m.NumNodes()
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for _, e := range entries {
		dense[e.Row][e.Col] += e.Val
	}
	for i := 0; i < n; i++ {
		if dense[i][i] <= 0 {
			t.Fatalf("nonpositive diagonal at %d: %v", i, dense[i][i])
		}
		for j := 0; j < n; j++ {
			if dense[i][j] != dense[j][i] {
				t.Fatalf("asymmetry at (%d,%d): %v vs %v", i, j, dense[i][j], dense[j][i])
			}
		}
	}
}

func TestRCBBalance(t *testing.T) {
	m := StructuredQuad(10, 10) // 121 nodes
	for _, p := range []int{2, 3, 4, 7} {
		part := RCB{}.PartitionNodes(m, p)
		sizes := PartSizes(part, p)
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 2 {
			t.Errorf("p=%d: imbalanced sizes %v", p, sizes)
		}
	}
}

func TestGreedyCoversAllNodes(t *testing.T) {
	m := TriangulatedRect(8, 8)
	for _, p := range []int{2, 4, 5} {
		part := Greedy{}.PartitionNodes(m, p)
		sizes := PartSizes(part, p)
		total := 0
		for _, s := range sizes {
			total += s
			if s == 0 {
				t.Errorf("p=%d: empty part in %v", p, sizes)
			}
		}
		if total != m.NumNodes() {
			t.Errorf("p=%d: covered %d of %d", p, total, m.NumNodes())
		}
	}
}

func TestEdgeCutReasonable(t *testing.T) {
	m := StructuredQuad(16, 16)
	part := RCB{}.PartitionNodes(m, 4)
	cut := EdgeCut(m, part)
	if cut == 0 {
		t.Fatal("4-way partition has zero cut")
	}
	// A 17x17 grid split into 4 quadrants cuts roughly 2*17 edges (plus
	// diagonal interactions); RCB should stay within a small factor.
	if cut > 150 {
		t.Errorf("edge cut %d is implausibly large", cut)
	}
	single := make([]int, m.NumNodes())
	if EdgeCut(m, single) != 0 {
		t.Error("1-part cut nonzero")
	}
}

func TestNewPartitioner(t *testing.T) {
	for _, name := range []string{"rcb", "greedy"} {
		p, err := NewPartitioner(name)
		if err != nil || p.Name() != name {
			t.Errorf("%s: %v %v", name, p, err)
		}
	}
	if _, err := NewPartitioner("metis"); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

// Property: both partitioners always produce a valid part id for every node
// and perfect coverage.
func TestPartitionValidityProperty(t *testing.T) {
	f := func(nxRaw, nyRaw, pRaw uint8) bool {
		nx := int(nxRaw)%6 + 1
		ny := int(nyRaw)%6 + 1
		p := int(pRaw)%5 + 1
		m := StructuredQuad(nx, ny)
		for _, pt := range []Partitioner{RCB{}, Greedy{}} {
			part := pt.PartitionNodes(m, p)
			if len(part) != m.NumNodes() {
				return false
			}
			for _, k := range part {
				if k < 0 || k >= p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// graphLaplacianEntries assembles the graph Laplacian of m's node
// connectivity with unit edge weights and a Dirichlet condition on boundary
// nodes (identity rows), as assembly triplets over global node indices.
func graphLaplacianEntries(m *Mesh) []Entry {
	boundary := map[int]bool{}
	for _, n := range m.BoundaryNodes() {
		boundary[n] = true
	}
	var out []Entry
	for i := 0; i < m.NumNodes(); i++ {
		if boundary[i] {
			out = append(out, Entry{i, i, 1})
			continue
		}
		// Dirichlet elimination: the diagonal counts every neighbour but
		// couplings to boundary nodes are dropped (their values move to
		// the right-hand side), keeping the operator symmetric positive
		// definite.
		deg := 0
		for _, j := range m.nodeAdj[i] {
			deg++
			if !boundary[j] {
				out = append(out, Entry{i, j, -1})
			}
		}
		out = append(out, Entry{i, i, float64(deg)})
	}
	return out
}

// PartSizes returns the node count of each part.
func PartSizes(part []int, p int) []int {
	sizes := make([]int, p)
	for _, k := range part {
		sizes[k]++
	}
	return sizes
}
