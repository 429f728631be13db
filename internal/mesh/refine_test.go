package mesh

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRefineQuadCounts(t *testing.T) {
	m := StructuredQuad(2, 2) // 9 nodes, 4 quads
	fine, p, err := Refine(m)
	if err != nil {
		t.Fatal(err)
	}
	// Refined: original 9 + 12 edge midpoints + 4 centers = 25 nodes;
	// 16 quads — identical to StructuredQuad(4, 4).
	if fine.NumNodes() != 25 || fine.NumCells() != 16 {
		t.Fatalf("nodes=%d cells=%d", fine.NumNodes(), fine.NumCells())
	}
	if len(p.Rows) != 25 {
		t.Fatalf("prolongation rows = %d", len(p.Rows))
	}
}

func TestRefineTriangleCounts(t *testing.T) {
	m := TriangulatedRect(1, 1) // 4 nodes, 2 triangles
	fine, _, err := Refine(m)
	if err != nil {
		t.Fatal(err)
	}
	// 4 original + 5 unique edges = 9 nodes; 8 triangles.
	if fine.NumNodes() != 9 || fine.NumCells() != 8 {
		t.Fatalf("nodes=%d cells=%d", fine.NumNodes(), fine.NumCells())
	}
}

func TestRefineRejectsBigCells(t *testing.T) {
	m, err := New([][2]float64{{0, 0}, {1, 0}, {1, 1}, {0.5, 1.5}, {0, 1}},
		[][]int{{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Refine(m); !errors.Is(err, ErrMesh) {
		t.Errorf("err = %v", err)
	}
}

// Prolongation of a linear function must be exact (midpoints and centroids
// reproduce linear fields).
func TestProlongationExactForLinearFields(t *testing.T) {
	m := StructuredQuad(3, 3)
	fine, p, err := Refine(m)
	if err != nil {
		t.Fatal(err)
	}
	lin := func(x, y float64) float64 { return 3*x - 2*y + 0.5 }
	coarse := make([]float64, m.NumNodes())
	for i, c := range m.Coords {
		coarse[i] = lin(c[0], c[1])
	}
	fineVals := p.Apply(coarse)
	for i, c := range fine.Coords {
		if math.Abs(fineVals[i]-lin(c[0], c[1])) > 1e-12 {
			t.Fatalf("fine node %d at %v: %v != %v", i, c, fineVals[i], lin(c[0], c[1]))
		}
	}
}

func TestRefineLevelsCompose(t *testing.T) {
	m := StructuredQuad(2, 2)
	fine, p, err := RefineLevels(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two levels of a 2x2 quad grid = an 8x8 grid: 81 nodes, 64 cells.
	if fine.NumNodes() != 81 || fine.NumCells() != 64 {
		t.Fatalf("nodes=%d cells=%d", fine.NumNodes(), fine.NumCells())
	}
	// Composition must still be exact for linears.
	lin := func(x, y float64) float64 { return x + 2*y }
	coarse := make([]float64, m.NumNodes())
	for i, c := range m.Coords {
		coarse[i] = lin(c[0], c[1])
	}
	fineVals := p.Apply(coarse)
	for i, c := range fine.Coords {
		if math.Abs(fineVals[i]-lin(c[0], c[1])) > 1e-12 {
			t.Fatalf("node %d: %v != %v", i, fineVals[i], lin(c[0], c[1]))
		}
	}
	// Zero levels = identity.
	same, p0, err := RefineLevels(m, 0)
	if err != nil || same != m {
		t.Fatalf("zero levels: %v %v", same, err)
	}
	id := p0.Apply(coarse)
	for i := range coarse {
		if id[i] != coarse[i] {
			t.Fatal("identity prolongation differs")
		}
	}
}

// Property: prolongation rows are convex combinations (weights sum to 1,
// all non-negative) for any structured mesh — value bounds are preserved.
func TestProlongationConvexProperty(t *testing.T) {
	f := func(nxRaw, nyRaw uint8) bool {
		nx := int(nxRaw)%4 + 1
		ny := int(nyRaw)%4 + 1
		_, p, err := Refine(StructuredQuad(nx, ny))
		if err != nil {
			return false
		}
		for _, row := range p.Rows {
			sum := 0.0
			for _, w := range row {
				if w.W < 0 {
					return false
				}
				sum += w.W
			}
			if math.Abs(sum-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRefinementMidRunScenario reproduces §2.2: after observing poor
// resolution, the researcher swaps the mesh for a refined one; the field is
// carried over by prolongation and the simulation continues on the fine
// mesh. (Exercised serially; the parallel path uses the same components.)
func TestRefinementMidRunScenario(t *testing.T) {
	coarse := StructuredQuad(4, 4)
	fine, p, err := Refine(coarse)
	if err != nil {
		t.Fatal(err)
	}
	// A coarse "field" mid-simulation.
	field := make([]float64, coarse.NumNodes())
	for i, c := range coarse.Coords {
		dx, dy := c[0]-0.5, c[1]-0.5
		field[i] = math.Exp(-10 * (dx*dx + dy*dy))
	}
	fineField := p.Apply(field)
	if len(fineField) != fine.NumNodes() {
		t.Fatalf("fine field length %d", len(fineField))
	}
	// Interpolated peak preserved within interpolation error.
	maxCoarse, maxFine := 0.0, 0.0
	for _, v := range field {
		maxCoarse = math.Max(maxCoarse, v)
	}
	for _, v := range fineField {
		maxFine = math.Max(maxFine, v)
	}
	if math.Abs(maxCoarse-maxFine) > 0.05 {
		t.Errorf("peak changed: %v -> %v", maxCoarse, maxFine)
	}
	// The fine mesh partitions and decomposes like any other.
	part := RCB{}.PartitionNodes(fine, 3)
	if _, err := Decompose(fine, part, 3, 1); err != nil {
		t.Fatal(err)
	}
}

// RefineLevels applies Refine n times, composing the prolongations.
func RefineLevels(m *Mesh, n int) (*Mesh, *Prolongation, error) {
	cur := m
	var total *Prolongation
	for i := 0; i < n; i++ {
		fine, p, err := Refine(cur)
		if err != nil {
			return nil, nil, err
		}
		if total == nil {
			total = p
		} else {
			total = compose(p, total)
		}
		cur = fine
	}
	if total == nil {
		// Zero levels: identity.
		total = &Prolongation{}
		for i := 0; i < m.NumNodes(); i++ {
			total.Rows = append(total.Rows, []Weight{{Node: i, W: 1}})
		}
	}
	return cur, total, nil
}

// compose chains fine←mid (outer) with mid←coarse (inner).
func compose(outer, inner *Prolongation) *Prolongation {
	out := &Prolongation{Rows: make([][]Weight, len(outer.Rows))}
	for i, row := range outer.Rows {
		acc := map[int]float64{}
		for _, w := range row {
			for _, iw := range inner.Rows[w.Node] {
				acc[iw.Node] += w.W * iw.W
			}
		}
		keys := make([]int, 0, len(acc))
		for k := range acc {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			out.Rows[i] = append(out.Rows[i], Weight{Node: k, W: acc[k]})
		}
	}
	return out
}
