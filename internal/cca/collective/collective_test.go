package collective

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/mpi"
)

// runTransfer executes a plan over a world of the given size, feeding each
// source rank its slice of the global vector [0,1,2,...]; it returns the
// reassembled destination view.
func runTransfer(t *testing.T, worldSize int, plan *Plan, forced bool) []float64 {
	t.Helper()
	n := plan.GlobalLen()
	global := make([]float64, n)
	for i := range global {
		global[i] = float64(i)
	}
	out := make([]float64, n)
	mpi.Run(worldSize, func(c *mpi.Comm) {
		me := c.Rank()
		var local []float64
		// Build this rank's source chunk from the source map.
		for side, w := range plan.src.WorldRanks {
			if w != me {
				continue
			}
			local = make([]float64, plan.src.Map.LocalLen(side))
			for _, r := range plan.src.Map.Runs() {
				if r.Rank != side {
					continue
				}
				for k := 0; k < r.Global.Len(); k++ {
					local[r.Local+k] = global[r.Global.Lo+k]
				}
			}
		}
		dst := make([]float64, plan.DstLocalLen(me))
		var err error
		if forced {
			err = plan.TransferForced(c, local, dst)
		} else {
			err = plan.Transfer(c, local, dst)
		}
		if err != nil {
			t.Errorf("rank %d transfer: %v", me, err)
			return
		}
		// Scatter back into the global result view (disjoint writes).
		for side, w := range plan.dst.WorldRanks {
			if w != me {
				continue
			}
			for _, r := range plan.dst.Map.Runs() {
				if r.Rank != side {
					continue
				}
				for k := 0; k < r.Global.Len(); k++ {
					out[r.Global.Lo+k] = dst[r.Local+k]
				}
			}
		}
	})
	return out
}

func checkIdentity(t *testing.T, got []float64) {
	t.Helper()
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("element %d = %v after redistribution", i, v)
		}
	}
}

func TestMatchedNtoNIsLocal(t *testing.T) {
	src := Block(100, []int{0, 1, 2, 3})
	dst := Block(100, []int{0, 1, 2, 3})
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Matched() {
		t.Error("matched maps not detected")
	}
	if plan.Messages() != 0 {
		t.Errorf("matched plan sends %d messages", plan.Messages())
	}
	checkIdentity(t, runTransfer(t, 4, plan, false))
}

func TestBlockToCyclicRedistribution(t *testing.T) {
	src := Block(37, []int{0, 1, 2})
	dst := Cyclic(37, 5, []int{3, 4})
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Matched() {
		t.Error("distinct maps reported matched")
	}
	checkIdentity(t, runTransfer(t, 5, plan, false))
}

func TestBlockMtoNOverlappingRanks(t *testing.T) {
	// Source on ranks {0,1,2,3}, destination on {2,3,4,5}: partial overlap
	// exercises both local copies and messages.
	src := Block(64, []int{0, 1, 2, 3})
	dst := Block(64, []int{2, 3, 4, 5})
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, runTransfer(t, 6, plan, false))
}

func TestSerialToParallelIsScatter(t *testing.T) {
	// 1 -> N: broadcast/scatter semantics (§6.3).
	src := Serial(50, 0)
	dst := Block(50, []int{0, 1, 2, 3})
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Messages() != 3 { // rank 0 keeps its own block locally
		t.Errorf("scatter messages = %d, want 3", plan.Messages())
	}
	checkIdentity(t, runTransfer(t, 4, plan, false))
}

func TestParallelToSerialIsGather(t *testing.T) {
	src := Block(50, []int{1, 2, 3})
	dst := Serial(50, 0)
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Messages() != 3 {
		t.Errorf("gather messages = %d, want 3", plan.Messages())
	}
	checkIdentity(t, runTransfer(t, 4, plan, false))
}

func TestCyclicToBlockDifferentCounts(t *testing.T) {
	src := Cyclic(101, 3, []int{0, 1, 2, 3, 4})
	dst := Block(101, []int{5, 6})
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, runTransfer(t, 7, plan, false))
}

func TestForcedTransferMatchesFastPath(t *testing.T) {
	src := Block(40, []int{0, 1})
	dst := Block(40, []int{0, 1})
	plan, err := NewPlan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, runTransfer(t, 2, plan, true))
}

func TestCardinalityMismatchRejected(t *testing.T) {
	_, err := NewPlan(Block(10, []int{0}), Block(11, []int{1}))
	if !errors.Is(err, ErrMismatch) {
		t.Errorf("err = %v", err)
	}
}

func TestSideValidation(t *testing.T) {
	if _, err := NewPlan(Side{}, Block(4, []int{0})); !errors.Is(err, ErrMismatch) {
		t.Errorf("nil map err = %v", err)
	}
	bad := Side{Map: array.NewBlockMap(10, 2), WorldRanks: []int{0}}
	if _, err := NewPlan(bad, Block(10, []int{1})); !errors.Is(err, ErrMismatch) {
		t.Errorf("rank count err = %v", err)
	}
	dup := Side{Map: array.NewBlockMap(10, 2), WorldRanks: []int{3, 3}}
	if _, err := NewPlan(dup, Block(10, []int{0})); !errors.Is(err, ErrMismatch) {
		t.Errorf("dup rank err = %v", err)
	}
	neg := Side{Map: array.NewBlockMap(10, 1), WorldRanks: []int{-2}}
	if _, err := NewPlan(neg, Block(10, []int{0})); !errors.Is(err, ErrMismatch) {
		t.Errorf("neg rank err = %v", err)
	}
}

func TestTransferBufferChecks(t *testing.T) {
	plan, err := NewPlan(Block(10, []int{0}), Block(10, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	mpi.Run(2, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			// Wrong source length.
			if err := plan.Transfer(c, make([]float64, 3), nil); !errors.Is(err, ErrBuffer) {
				t.Errorf("err = %v", err)
			}
			// Correct retry so rank 1 is not stranded.
			if err := plan.Transfer(c, make([]float64, 10), nil); err != nil {
				t.Errorf("retry: %v", err)
			}
		} else {
			out := make([]float64, 10)
			if err := plan.Transfer(c, nil, out); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
	})
}

func TestEmptyGlobal(t *testing.T) {
	plan, err := NewPlan(Block(0, []int{0}), Block(0, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	mpi.Run(2, func(c *mpi.Comm) {
		if err := plan.Transfer(c, nil, nil); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
}

// provider implements DistArrayPort for the port-level test.
type provider struct {
	side Side
	data []float64
}

func (p *provider) Side() Side           { return p.side }
func (p *provider) LocalData() []float64 { return p.data }

func TestPortConnectAndPull(t *testing.T) {
	const n = 24
	src := Block(n, []int{0, 1})
	info := Info("field", src)
	if info.Type != PortType || info.Properties["collective"] != "true" {
		t.Errorf("info = %+v", info)
	}

	got := make([]float64, n)
	mpi.Run(3, func(c *mpi.Comm) {
		me := c.Rank()
		var prov *provider
		if me < 2 {
			g := array.NewBlockMap(n, 2).Range(me)
			data := make([]float64, g.Len())
			for i := range data {
				data[i] = float64(g.Lo + i)
			}
			prov = &provider{side: src, data: data}
		} else {
			prov = &provider{side: src} // consumer's view of the port (side metadata only)
		}
		conn, err := Connect(prov, Serial(n, 2))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		var out []float64
		if me == 2 {
			out = make([]float64, n)
		}
		if err := conn.Pull(c, out); err != nil {
			t.Errorf("rank %d pull: %v", me, err)
			return
		}
		if me == 2 {
			copy(got, out)
		}
	})
	checkIdentity(t, got)
}

// Property: redistribution between random block/cyclic sides is always the
// identity permutation on the global vector.
func TestRedistributionIdentityProperty(t *testing.T) {
	f := func(nRaw, mRaw, pRaw, bRaw uint8) bool {
		n := int(nRaw)%80 + 1
		m := int(mRaw)%3 + 1
		p2 := int(pRaw)%3 + 1
		b := int(bRaw)%4 + 1
		srcRanks := make([]int, m)
		for i := range srcRanks {
			srcRanks[i] = i
		}
		dstRanks := make([]int, p2)
		for i := range dstRanks {
			dstRanks[i] = m + i
		}
		plan, err := NewPlan(Block(n, srcRanks), Cyclic(n, b, dstRanks))
		if err != nil {
			return false
		}
		got := runTransfer(t, m+p2, plan, false)
		for i, v := range got {
			if v != float64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
