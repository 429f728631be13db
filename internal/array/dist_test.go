package array

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// errBounds reports a global index outside a map's index space.
var errBounds = errors.New("array: index out of bounds")

// owner locates the rank and local index owning a global index under m:
// the tests' oracle for a map's runs.
func owner(m DataMap, g int) (rank, local int, err error) {
	if g < 0 || g >= m.GlobalLen() {
		return 0, 0, fmt.Errorf("%w: global index %d of %d", errBounds, g, m.GlobalLen())
	}
	runs := m.Runs()
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Global.Hi > g })
	r := runs[i]
	return r.Rank, r.Local + (g - r.Global.Lo), nil
}

func TestBlockMapRanges(t *testing.T) {
	m := NewBlockMap(10, 4)
	wantRanges := []IndexRange{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for r, want := range wantRanges {
		if got := m.Range(r); got != want {
			t.Errorf("rank %d range = %v, want %v", r, got, want)
		}
		if m.LocalLen(r) != want.Len() {
			t.Errorf("rank %d local len = %d", r, m.LocalLen(r))
		}
	}
	if err := Validate(m); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBlockMapMoreRanksThanElements(t *testing.T) {
	m := NewBlockMap(2, 5)
	if err := Validate(m); err != nil {
		t.Errorf("validate: %v", err)
	}
	total := 0
	for r := 0; r < 5; r++ {
		total += m.LocalLen(r)
	}
	if total != 2 {
		t.Errorf("total owned = %d", total)
	}
}

func TestCyclicMapPureCyclic(t *testing.T) {
	m := NewCyclicMap(7, 3, 1)
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Elements 0..6 dealt to ranks 0,1,2,0,1,2,0.
	wantOwners := []int{0, 1, 2, 0, 1, 2, 0}
	for g, want := range wantOwners {
		rank, _, err := owner(m, g)
		if err != nil {
			t.Fatal(err)
		}
		if rank != want {
			t.Errorf("owner(%d) = %d, want %d", g, rank, want)
		}
	}
	if m.LocalLen(0) != 3 || m.LocalLen(1) != 2 || m.LocalLen(2) != 2 {
		t.Errorf("local lens = %d %d %d", m.LocalLen(0), m.LocalLen(1), m.LocalLen(2))
	}
}

func TestCyclicMapBlockCyclic(t *testing.T) {
	m := NewCyclicMap(10, 2, 3)
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Blocks: [0,3)->0, [3,6)->1, [6,9)->0, [9,10)->1
	cases := []struct{ g, rank, local int }{
		{0, 0, 0}, {2, 0, 2}, {3, 1, 0}, {5, 1, 2},
		{6, 0, 3}, {8, 0, 5}, {9, 1, 3},
	}
	for _, tc := range cases {
		rank, local, err := owner(m, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if rank != tc.rank || local != tc.local {
			t.Errorf("owner(%d) = (%d,%d), want (%d,%d)", tc.g, rank, local, tc.rank, tc.local)
		}
	}
}

func TestSerialMap(t *testing.T) {
	m := NewSerialMap(5)
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	rank, local, err := owner(m, 4)
	if err != nil || rank != 0 || local != 4 {
		t.Errorf("owner = (%d,%d,%v)", rank, local, err)
	}
	if Validate(NewSerialMap(0)) != nil {
		t.Error("empty serial map should validate")
	}
}

func TestOwnerBounds(t *testing.T) {
	m := NewBlockMap(4, 2)
	if _, _, err := owner(m, -1); !errors.Is(err, errBounds) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := owner(m, 4); !errors.Is(err, errBounds) {
		t.Errorf("err = %v", err)
	}
}

func TestIrregularMap(t *testing.T) {
	// Rank 0 owns [0,2) and [5,7); rank 1 owns [2,5).
	m, err := NewIrregularMap(7, [][]IndexRange{
		{{0, 2}, {5, 7}},
		{{2, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalLen(0) != 4 || m.LocalLen(1) != 3 {
		t.Errorf("local lens %d %d", m.LocalLen(0), m.LocalLen(1))
	}
	rank, local, _ := owner(m, 6)
	if rank != 0 || local != 3 {
		t.Errorf("owner(6) = (%d,%d), want (0,3)", rank, local)
	}
}

func TestIrregularMapRejectsGaps(t *testing.T) {
	_, err := NewIrregularMap(5, [][]IndexRange{{{0, 2}}, {{3, 5}}})
	if !errors.Is(err, ErrMap) {
		t.Errorf("gap err = %v", err)
	}
	_, err = NewIrregularMap(5, [][]IndexRange{{{0, 3}}, {{2, 5}}})
	if !errors.Is(err, ErrMap) {
		t.Errorf("overlap err = %v", err)
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want IndexRange }{
		{IndexRange{0, 5}, IndexRange{3, 8}, IndexRange{3, 5}},
		{IndexRange{0, 5}, IndexRange{5, 8}, IndexRange{5, 5}},
		{IndexRange{0, 2}, IndexRange{4, 8}, IndexRange{4, 4}},
		{IndexRange{0, 10}, IndexRange{2, 3}, IndexRange{2, 3}},
	}
	for _, tc := range cases {
		if got := tc.a.Intersect(tc.b); got.Len() != tc.want.Len() || (got.Len() > 0 && got != tc.want) {
			t.Errorf("%v ∩ %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// Property: every standard map validates and its runs' owners agree with
// owner() for all indices.
func TestMapsSelfConsistentProperty(t *testing.T) {
	f := func(nRaw, pRaw, bRaw uint8) bool {
		n := int(nRaw) % 64
		p := int(pRaw)%8 + 1
		b := int(bRaw)%5 + 1
		maps := []DataMap{NewBlockMap(n, p), NewCyclicMap(n, p, b), NewSerialMap(n)}
		for _, m := range maps {
			if Validate(m) != nil {
				return false
			}
			for _, run := range m.Runs() {
				for g := run.Global.Lo; g < run.Global.Hi; g++ {
					rank, local, err := owner(m, g)
					if err != nil || rank != run.Rank || local != run.Local+(g-run.Global.Lo) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total local lengths equal the global length.
func TestMapLocalLenSumProperty(t *testing.T) {
	f := func(nRaw, pRaw, bRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		b := int(bRaw)%7 + 1
		for _, m := range []DataMap{NewBlockMap(n, p), NewCyclicMap(n, p, b)} {
			total := 0
			for r := 0; r < m.Ranks(); r++ {
				total += m.LocalLen(r)
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BlockMap partitions [0,n) exactly — ranges are contiguous,
// non-overlapping, cover everything, and sizes differ by at most one.
func TestBlockRangeProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		m := NewBlockMap(n, p)
		prev := 0
		minSz, maxSz := math.MaxInt, 0
		for r := 0; r < p; r++ {
			g := m.Range(r)
			if g.Lo != prev || g.Hi < g.Lo {
				return false
			}
			minSz = min(minSz, g.Len())
			maxSz = max(maxSz, g.Len())
			prev = g.Hi
		}
		return prev == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
