package mpi

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunSingleRank(t *testing.T) {
	ran := false
	Run(1, func(c *Comm) {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank/size = %d/%d, want 0/1", c.Rank(), c.Size())
		}
		ran = true
	})
	if !ran {
		t.Fatal("body did not run")
	}
}

func TestRunAllRanksExecute(t *testing.T) {
	const n = 8
	var count int64
	Run(n, func(c *Comm) {
		atomic.AddInt64(&count, 1)
	})
	if count != n {
		t.Fatalf("ran %d ranks, want %d", count, n)
	}
}

func TestSendRecvBasic(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []float64{1, 2, 3}); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			v, st, err := c.Recv(0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if st.Source != 0 || st.Tag != 7 {
				t.Errorf("status = %+v", st)
			}
			if !reflect.DeepEqual(v, []float64{1, 2, 3}) {
				t.Errorf("payload = %v", v)
			}
		}
	})
}

func TestRecvWildcardSource(t *testing.T) {
	Run(4, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				_, st, err := c.Recv(AnySource, 1)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				t.Errorf("saw sources %v, want 3 distinct", seen)
			}
		} else {
			if err := c.Send(0, 1, []float64{float64(c.Rank())}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
}

func TestRecvWildcardTag(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for _, tag := range []int{5, 9} {
				if err := c.Send(1, tag, []float64{float64(tag)}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		} else {
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				p, st, err := c.Recv(0, AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if p[0] != float64(st.Tag) {
					t.Errorf("payload %v under tag %d", p, st.Tag)
				}
				got[st.Tag] = true
			}
			if !got[5] || !got[9] {
				t.Errorf("tags received: %v", got)
			}
		}
	})
}

// Messages from one source with one tag must arrive in send order even when
// a wildcard receive is used (MPI non-overtaking rule).
func TestNonOvertaking(t *testing.T) {
	Run(2, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []float64{float64(i)}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				p, _, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if p[0] != float64(i) {
					t.Errorf("message %d arrived out of order (got %v)", i, p)
					return
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := c.Send(1, 2, []float64{2}); err != nil {
				t.Errorf("send: %v", err)
			}
			if err := c.Send(1, 1, []float64{1}); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			p1, _, err := c.Recv(0, 1)
			if err != nil || p1[0] != 1 {
				t.Errorf("tag-1 recv = %v, %v", p1, err)
			}
			p2, _, err := c.Recv(0, 2)
			if err != nil || p2[0] != 2 {
				t.Errorf("tag-2 recv = %v, %v", p2, err)
			}
		}
	})
}

func TestSendErrors(t *testing.T) {
	Run(1, func(c *Comm) {
		if err := c.Send(5, 0, nil); !errors.Is(err, ErrRankRange) {
			t.Errorf("bad rank: err = %v", err)
		}
		if err := c.Send(0, -3, nil); !errors.Is(err, ErrTagRange) {
			t.Errorf("bad tag: err = %v", err)
		}
		if err := c.Send(0, internalTagBase, nil); !errors.Is(err, ErrTagRange) {
			t.Errorf("internal tag leaked into user space: err = %v", err)
		}
	})
}

// Alltoall's parts are []any; one that is not a []float64 fails the call
// before anything is sent, so the next collective still lines up.
func TestAlltoallTypeMismatch(t *testing.T) {
	Run(2, func(c *Comm) {
		for _, bad := range []any{nil, []int{1}, 2.5} {
			if _, err := c.Alltoall([]any{[]float64{1}, bad}); !errors.Is(err, ErrTypeMatch) {
				t.Errorf("part %#v: err = %v, want ErrTypeMatch", bad, err)
			}
		}
		mine := []float64{float64(c.Rank())}
		got, err := c.Alltoall([]any{mine, mine})
		if err != nil || got[1].([]float64)[0] != 1 {
			t.Errorf("alltoall after the refused calls = %v, %v", got, err)
		}
	})
}

// A pairwise simultaneous exchange — both ranks Send, then Recv — must not
// deadlock: Send never blocks on the receiver.
func TestSendrecvExchange(t *testing.T) {
	Run(2, func(c *Comm) {
		other := 1 - c.Rank()
		if err := c.Send(other, 4, []float64{float64(c.Rank() * 10)}); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		p, st, err := c.Recv(other, 4)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if p[0] != float64(other*10) || st.Source != other {
			t.Errorf("rank %d got %v from %d", c.Rank(), p, st.Source)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		var before, after int64
		Run(n, func(c *Comm) {
			atomic.AddInt64(&before, 1)
			if err := c.Barrier(); err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			if atomic.LoadInt64(&before) != int64(n) {
				t.Errorf("n=%d: rank %d passed barrier before all entered", n, c.Rank())
			}
			atomic.AddInt64(&after, 1)
		})
		if after != int64(n) {
			t.Fatalf("n=%d: %d ranks exited", n, after)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			Run(n, func(c *Comm) {
				var in []float64
				if c.Rank() == root {
					in = []float64{float64(root), 2, 3}
				}
				out, err := c.Bcast(root, in)
				if err != nil {
					t.Errorf("n=%d root=%d: %v", n, root, err)
					return
				}
				want := []float64{float64(root), 2, 3}
				if !reflect.DeepEqual(out, want) {
					t.Errorf("n=%d root=%d rank=%d: got %v", n, root, c.Rank(), out)
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		Run(n, func(c *Comm) {
			contrib := []float64{float64(c.Rank()), 1}
			got, err := c.AllreduceFloat64(contrib, Sum)
			if err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
			if wantSum := float64(n*(n-1)) / 2; got[0] != wantSum || got[1] != float64(n) {
				t.Errorf("n=%d rank %d: got %v", n, c.Rank(), got)
			}
			// Contribution must not be mutated.
			if contrib[0] != float64(c.Rank()) || contrib[1] != 1 {
				t.Errorf("allreduce mutated contribution: %v", contrib)
			}
		})
	}
}

func TestAllreduceOps(t *testing.T) {
	const n = 5
	Run(n, func(c *Comm) {
		r := float64(c.Rank())
		cases := []struct {
			op   Op
			want float64
		}{
			{Sum, 0 + 1 + 2 + 3 + 4},
			{Max, 4},
			{Min, 0},
		}
		for _, tc := range cases {
			got, err := c.AllreduceScalar(r, tc.op)
			if err != nil {
				t.Errorf("%s: %v", tc.op, err)
				continue
			}
			if got != tc.want {
				t.Errorf("%s = %v, want %v", tc.op, got, tc.want)
			}
		}
	})
}

func TestGatherScatterRoundTrip(t *testing.T) {
	const n = 4
	data := make([]float64, 10)
	for i := range data {
		data[i] = float64(i)
	}
	Run(n, func(c *Comm) {
		var parts [][]float64
		if c.Rank() == 0 {
			parts = blockParts(data, n)
		}
		chunk, err := scatterv(c, 0, parts)
		if err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		back, err := gatherv(c, 0, chunk)
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if c.Rank() == 0 && !reflect.DeepEqual(back, data) {
			t.Errorf("round trip = %v", back)
		}
	})
}

func TestAllgather(t *testing.T) {
	// Allgather is the Alltoall that sends every rank the same part.
	Run(3, func(c *Comm) {
		mine := []float64{float64(c.Rank() * 2)}
		parts, err := c.Alltoall([]any{mine, mine, mine})
		if err != nil {
			t.Errorf("allgather: %v", err)
			return
		}
		for i, p := range parts {
			if p.([]float64)[0] != float64(i*2) {
				t.Errorf("parts[%d] = %v", i, p)
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		parts := make([]any, n)
		for i := range parts {
			parts[i] = []float64{float64(c.Rank()*100 + i)}
		}
		got, err := c.Alltoall(parts)
		if err != nil {
			t.Errorf("alltoall: %v", err)
			return
		}
		for i, p := range got {
			if p.([]float64)[0] != float64(i*100+c.Rank()) {
				t.Errorf("rank %d got[%d] = %v, want %d", c.Rank(), i, p, i*100+c.Rank())
			}
		}
	})
}

func TestSplitColors(t *testing.T) {
	Run(6, func(c *Comm) {
		color := c.Rank() % 2
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		if sub.Rank() != c.Rank()/2 {
			t.Errorf("world rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), c.Rank()/2)
		}
		// Collectives on the subcommunicator must stay inside the color.
		got, err := sub.AllreduceScalar(float64(c.Rank()), Sum)
		if err != nil {
			t.Errorf("sub allreduce: %v", err)
			return
		}
		want := 0.0
		for r := color; r < 6; r += 2 {
			want += float64(r)
		}
		if got != want {
			t.Errorf("color %d sum = %v, want %v", color, got, want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	Run(4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = Undefined
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color got a communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d, want 3", sub.Size())
		}
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	Run(4, func(c *Comm) {
		// Reverse the ordering via keys.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if sub.Rank() != 3-c.Rank() {
			t.Errorf("world %d -> sub %d, want %d", c.Rank(), sub.Rank(), 3-c.Rank())
		}
	})
}

// A same-group derived communicator — Split with one color, keyed by rank —
// isolates its traffic from the parent's.
func TestDupIsolatesTraffic(t *testing.T) {
	Run(2, func(c *Comm) {
		dup, err := c.Split(0, c.Rank())
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if c.Rank() == 0 {
			// Same tag on both communicators; payloads differ.
			c.Send(1, 5, []float64{1})
			dup.Send(1, 5, []float64{2})
		} else {
			// Receive from dup first: must not see the parent's message.
			p, _, err := dup.Recv(0, 5)
			if err != nil || p[0] != 2 {
				t.Errorf("dup recv = %v, %v", p, err)
			}
			p, _, err = c.Recv(0, 5)
			if err != nil || p[0] != 1 {
				t.Errorf("parent recv = %v, %v", p, err)
			}
		}
	})
}

func TestCollectivesBackToBackDoNotInterleave(t *testing.T) {
	// Stress tag sequencing: many different collectives in a row.
	Run(4, func(c *Comm) {
		for i := 0; i < 50; i++ {
			s, err := c.AllreduceScalar(1, Sum)
			if err != nil || s != 4 {
				t.Errorf("iter %d allreduce = %v, %v", i, s, err)
				return
			}
			out, err := c.Bcast(i%4, []float64{float64(i)})
			if err != nil || out[0] != float64(i) {
				t.Errorf("iter %d bcast = %v, %v", i, out, err)
				return
			}
			if err := c.Barrier(); err != nil {
				t.Errorf("iter %d barrier: %v", i, err)
				return
			}
		}
	})
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("rank 1 died")
		}
		// Other ranks block in a collective; revocation must unblock them.
		_ = c.Barrier()
	})
}

// Property: Allreduce(Sum) over random per-rank vectors equals the serial
// elementwise sum.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		w := int(width)%32 + 1
		const n = 4
		inputs := make([][]float64, n)
		x := seed
		for r := range inputs {
			inputs[r] = make([]float64, w)
			for i := range inputs[r] {
				x = x*6364136223846793005 + 1442695040888963407
				inputs[r][i] = float64(x % 1000)
			}
		}
		want := make([]float64, w)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		ok := true
		Run(n, func(c *Comm) {
			got, err := c.AllreduceFloat64(inputs[c.Rank()], Sum)
			if err != nil || !reflect.DeepEqual(got, want) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	Run(2, func(c *Comm) {
		contrib := []float64{1}
		if c.Rank() == 1 {
			contrib = []float64{1, 2}
		}
		// Both ranks combine the other's operand, so both see the mismatch.
		if _, err := c.AllreduceFloat64(contrib, Sum); !errors.Is(err, ErrCountMatch) {
			t.Errorf("rank %d err = %v, want ErrCountMatch", c.Rank(), err)
		}
	})
}

// Property: scatter then gather of a random vector is the identity.
func TestScatterGatherIdentityProperty(t *testing.T) {
	f := func(vals []float64) bool {
		const n = 3
		ok := true
		Run(n, func(c *Comm) {
			var parts [][]float64
			if c.Rank() == 0 {
				parts = blockParts(vals, n)
			}
			chunk, err := scatterv(c, 0, parts)
			if err != nil {
				ok = false
				return
			}
			back, err := gatherv(c, 0, chunk)
			if err != nil {
				ok = false
				return
			}
			if c.Rank() == 0 && !reflect.DeepEqual(back, vals) && !(len(vals) == 0 && len(back) == 0) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
