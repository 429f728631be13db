package mpi

// Cross-backend MPI conformance suite: one table of semantic checks —
// point-to-point matching, send-before-receive exchanges, every collective,
// communicator management, payload edge cases, the copy-on-send ownership
// rule — executed identically over the goroutine backend (Run) and the
// process backend (RunOver) on each transport scheme. The process backend
// must be indistinguishable from the goroutine backend at this interface;
// a check that needs a backend special case is a bug in the backend, not
// in the check. Mirrors the transport conformance pattern from the
// zero-alloc shm PR.
//
// Rank bodies run on non-test goroutines, so they report with t.Errorf
// (never t.Fatal) and use panics only for unreachable states.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/array"
)

// confBackend runs an SPMD body over one Comm implementation.
type confBackend struct {
	name string
	run  func(t *testing.T, n int, body func(c *Comm))
}

var confAddrSeq int64

// confBackends is the conformance matrix: the goroutine backend plus the
// process backend over every transport scheme (inproc exercises the wire
// codec and mesh without sockets; tcp and shm are the deployment paths).
func confBackends() []confBackend {
	over := func(addr func(t *testing.T) string) func(*testing.T, int, func(*Comm)) {
		return func(t *testing.T, n int, body func(c *Comm)) {
			t.Helper()
			if err := RunOver(n, addr(t), func(c *Comm, _ *Proc) { body(c) }); err != nil {
				t.Fatalf("RunOver: %v", err)
			}
		}
	}
	return []confBackend{
		{"goroutine", func(t *testing.T, n int, body func(c *Comm)) {
			t.Helper()
			Run(n, body)
		}},
		{"proc-inproc", over(func(t *testing.T) string {
			return fmt.Sprintf("inproc://conformance-%d", atomic.AddInt64(&confAddrSeq, 1))
		})},
		{"proc-tcp", over(func(t *testing.T) string { return "tcp://127.0.0.1:0" })},
		{"proc-shm", over(func(t *testing.T) string { return "shm://" + t.TempDir() + "/rv" })},
	}
}

// eachBackend runs body as an n-rank SPMD job over every backend.
func eachBackend(t *testing.T, n int, body func(t *testing.T, c *Comm)) {
	t.Helper()
	for _, b := range confBackends() {
		t.Run(b.name, func(t *testing.T) {
			b.run(t, n, func(c *Comm) { body(t, c) })
		})
	}
}

func TestConformanceSendRecvTagMatching(t *testing.T) {
	// Every nonzero rank sends one message per tag; rank 0 drains them in
	// an order unrelated to arrival (by source descending, tag ascending),
	// so matching must hold messages for later selective receives.
	tags := []int{7, 9, 11}
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		if c.Rank() != 0 {
			for _, tag := range tags {
				if err := c.Send(0, tag, []float64{float64(c.Rank()), float64(tag)}); err != nil {
					t.Errorf("rank %d send tag %d: %v", c.Rank(), tag, err)
				}
			}
			return
		}
		for src := c.Size() - 1; src >= 1; src-- {
			for _, tag := range tags {
				got, st, err := c.Recv(src, tag)
				if err != nil {
					t.Errorf("recv (%d,%d): %v", src, tag, err)
					continue
				}
				if st.Source != src || st.Tag != tag || len(got) != 2 {
					t.Errorf("status = %+v (len %d), want source %d tag %d len 2", st, len(got), src, tag)
				}
				if got[0] != float64(src) || got[1] != float64(tag) {
					t.Errorf("payload (%d,%d) = %v", src, tag, got)
				}
			}
		}
	})
}

func TestConformanceWildcards(t *testing.T) {
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		const tag = 3
		if c.Rank() != 0 {
			if err := c.Send(0, tag, []float64{float64(c.Rank())}); err != nil {
				t.Errorf("send: %v", err)
			}
			if err := c.Send(0, 100+c.Rank(), nil); err != nil {
				t.Errorf("send: %v", err)
			}
			return
		}
		// AnySource with a fixed tag: one message per peer, any order.
		seen := make(map[int]bool)
		for i := 1; i < c.Size(); i++ {
			p, st, err := c.Recv(AnySource, tag)
			if err != nil {
				t.Errorf("recv anysource: %v", err)
				return
			}
			if p[0] != float64(st.Source) || seen[st.Source] {
				t.Errorf("anysource payload %v from %d (seen %v)", p, st.Source, seen)
			}
			seen[st.Source] = true
		}
		// Fixed source with AnyTag: the per-peer tag comes back in Status.
		for src := 1; src < c.Size(); src++ {
			p, st, err := c.Recv(src, AnyTag)
			if err != nil {
				t.Errorf("recv anytag: %v", err)
				return
			}
			if st.Tag != 100+src || len(p) != 0 {
				t.Errorf("anytag from %d: payload %v tag %d, want tag %d", src, p, st.Tag, 100+src)
			}
		}
	})
}

func TestConformanceOutOfOrderTags(t *testing.T) {
	// The sender queues tag 5 before tag 3; the receiver asks for tag 3
	// first. Matching must skip over the queued tag-5 message and then
	// still deliver it — and FIFO order must hold within one tag.
	eachBackend(t, 2, func(t *testing.T, c *Comm) {
		switch c.Rank() {
		case 1:
			for _, v := range []struct {
				tag int
				val float64
			}{{5, 50}, {3, 30}, {5, 51}} {
				if err := c.Send(0, v.tag, []float64{v.val}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		case 0:
			want := []struct {
				tag int
				val float64
			}{{3, 30}, {5, 50}, {5, 51}}
			for _, w := range want {
				got, _, err := c.Recv(1, w.tag)
				if err != nil {
					t.Errorf("recv tag %d: %v", w.tag, err)
					return
				}
				if got[0] != w.val {
					t.Errorf("recv tag %d = %v, want %v", w.tag, got[0], w.val)
				}
			}
		}
	})
}

func TestConformanceSendrecvExchange(t *testing.T) {
	// Pairwise simultaneous exchange as plain Send then Recv — the pattern
	// that deadlocks on an unbuffered fabric. Send never blocks on the
	// receiver here, which is all halo overlap needs.
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		peer := c.Rank() ^ 1
		if err := c.Send(peer, 8, []float64{float64(c.Rank())}); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		p, st, err := c.Recv(peer, 8)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if st.Source != peer || p[0] != float64(peer) {
			t.Errorf("exchange got %v from %d, want from %d", p, st.Source, peer)
		}
	})
}

func TestConformanceBarrierStaggered(t *testing.T) {
	// Ranks enter each barrier at staggered times; the job must neither
	// deadlock nor let a rank escape early enough to corrupt the paired
	// Allreduce that follows every round.
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		for round := 0; round < 10; round++ {
			if c.Rank() == round%c.Size() {
				time.Sleep(time.Millisecond)
			}
			if err := c.Barrier(); err != nil {
				t.Errorf("barrier round %d: %v", round, err)
				return
			}
			sum, err := c.AllreduceScalar(1, Sum)
			if err != nil || sum != float64(c.Size()) {
				t.Errorf("allreduce after barrier %d = %v, %v", round, sum, err)
				return
			}
		}
	})
}

func TestConformanceBcastAllRoots(t *testing.T) {
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		for root := 0; root < c.Size(); root++ {
			var in []float64
			if c.Rank() == root {
				in = []float64{float64(root), 1.5}
			}
			out, err := c.Bcast(root, in)
			if err != nil {
				t.Errorf("bcast root %d: %v", root, err)
				return
			}
			if len(out) != 2 || out[0] != float64(root) || out[1] != 1.5 {
				t.Errorf("bcast root %d on rank %d = %v", root, c.Rank(), out)
			}
		}
	})
}

func TestConformanceReduceAllreduceOps(t *testing.T) {
	// Integer-valued doubles: every op is exact, so each result is checked
	// for equality, not closeness.
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		n, r := c.Size(), float64(c.Rank())
		for _, tc := range []struct {
			op            Op
			contrib, want []float64
		}{
			{Sum, []float64{r, 2 * r, 1 << 40}, []float64{float64(n * (n - 1) / 2), float64(n * (n - 1)), float64(n) * (1 << 40)}},
			{Max, []float64{r, -r, 1 << 40}, []float64{float64(n - 1), 0, 1 << 40}},
			{Min, []float64{r, -r, -(1 << 40)}, []float64{0, -float64(n - 1), -(1 << 40)}},
		} {
			got, err := c.AllreduceFloat64(tc.contrib, tc.op)
			if err != nil || !slices.Equal(got, tc.want) {
				t.Errorf("allreduce %s = %v, %v, want %v", tc.op, got, err, tc.want)
			}
		}
	})
}

// scatterv delivers parts[i] from root to rank i as one Alltoall in which
// only root sends anything non-empty; other callers pass nil parts.
func scatterv(c *Comm, root int, parts [][]float64) ([]float64, error) {
	send := make([]any, c.Size())
	for i := range send {
		send[i] = []float64{}
		if c.Rank() == root {
			send[i] = parts[i]
		}
	}
	got, err := c.Alltoall(send)
	if err != nil {
		return nil, err
	}
	return got[root].([]float64), nil
}

// gatherv concatenates every rank's chunk at root in rank order, as one
// Alltoall whose only non-empty parts go to root; other ranks get nil.
func gatherv(c *Comm, root int, chunk []float64) ([]float64, error) {
	send := make([]any, c.Size())
	for i := range send {
		send[i] = []float64{}
	}
	send[root] = chunk
	got, err := c.Alltoall(send)
	if err != nil || c.Rank() != root {
		return nil, err
	}
	var all []float64
	for _, p := range got {
		all = append(all, p.([]float64)...)
	}
	return all, nil
}

// blockParts splits data into n near-equal contiguous chunks.
func blockParts(data []float64, n int) [][]float64 {
	parts := make([][]float64, n)
	for i := range parts {
		g := array.NewBlockMap(len(data), n).Range(i)
		parts[i] = data[g.Lo:g.Hi]
	}
	return parts
}

func TestConformanceGathervScatterv(t *testing.T) {
	// Ragged variable-count scatter and gather: 11 elements over 4 ranks
	// gives per-rank chunks of unequal length (the v-variant semantics).
	const total = 11
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		n, r := c.Size(), c.Rank()
		var parts [][]float64
		if r == 0 {
			data := make([]float64, total)
			for i := range data {
				data[i] = float64(i) * 1.25
			}
			parts = blockParts(data, n)
		}
		chunk, err := scatterv(c, 0, parts)
		if err != nil {
			t.Errorf("scatterv: %v", err)
			return
		}
		g := array.NewBlockMap(total, n).Range(r)
		if len(chunk) != g.Len() {
			t.Errorf("rank %d chunk has %d elements, want [%d,%d)", r, len(chunk), g.Lo, g.Hi)
			return
		}
		// Transform locally, gather back, verify the reassembled whole.
		out := make([]float64, len(chunk))
		for k, v := range chunk {
			if v != float64(g.Lo+k)*1.25 {
				t.Errorf("chunk[%d] = %v", k, v)
			}
			out[k] = v + 1000
		}
		all, err := gatherv(c, 0, out)
		if err != nil {
			t.Errorf("gatherv: %v", err)
			return
		}
		if r != 0 {
			return
		}
		if len(all) != total {
			t.Errorf("gathered %d elements, want %d", len(all), total)
			return
		}
		for i, v := range all {
			if v != float64(i)*1.25+1000 {
				t.Errorf("all[%d] = %v", i, v)
			}
		}
	})
}

func TestConformanceGatherScatterAny(t *testing.T) {
	// Special values scattered from and gathered at a non-zero root of an
	// odd-sized communicator, compared bit for bit: −0, ±Inf and a NaN
	// whose payload must survive.
	nan := math.Float64frombits(0x7ff8_0000_dead_0001)
	special := func(i int) []float64 {
		return []float64{float64(i), math.Copysign(0, -1), math.Inf(1 - 2*(i%2)), nan}
	}
	eachBackend(t, 3, func(t *testing.T, c *Comm) {
		n, r := c.Size(), c.Rank()
		var parts [][]float64
		if r == 1 {
			parts = make([][]float64, n)
			for i := range parts {
				parts[i] = special(i)
			}
		}
		got, err := scatterv(c, 1, parts)
		if err != nil || !bitsEqual(got, special(r)) {
			t.Errorf("scatter = %v, %v", got, err)
			return
		}
		all, err := gatherv(c, 1, got)
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if want := slices.Concat(special(0), special(1), special(2)); r == 1 && !bitsEqual(all, want) {
			t.Errorf("gathered %v, want %v", all, want)
		} else if r != 1 && all != nil {
			t.Errorf("non-root gather = %v, want nil", all)
		}
	})
}

func TestConformanceAllgatherAlltoall(t *testing.T) {
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		n, r := c.Size(), c.Rank()
		// Allgather is the Alltoall that sends every rank the same part.
		same := make([]any, n)
		for j := range same {
			same[j] = []float64{float64(r), float64(r * r)}
		}
		all, err := c.Alltoall(same)
		if err != nil {
			t.Errorf("allgather: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if v := all[i].([]float64); v[0] != float64(i) || v[1] != float64(i*i) {
				t.Errorf("allgather[%d] = %v", i, v)
			}
		}
		// Alltoall: parts[j] = 100*me + j; received[i] must be 100*i + me.
		parts := make([]any, n)
		for j := range parts {
			parts[j] = []float64{float64(100*r + j)}
		}
		recv, err := c.Alltoall(parts)
		if err != nil {
			t.Errorf("alltoall: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if got := recv[i].([]float64)[0]; got != float64(100*i+r) {
				t.Errorf("alltoall[%d] = %v, want %d", i, got, 100*i+r)
			}
		}
	})
}

func TestConformanceSplitDup(t *testing.T) {
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		r := c.Rank()
		// Evens and odds; rank 3 opts out with Undefined.
		color := r % 2
		if r == 3 {
			color = Undefined
		}
		sub, err := c.Split(color, -r) // negative key reverses rank order
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if r == 3 {
			if sub != nil {
				t.Error("Undefined color returned a communicator")
			}
		} else {
			wantSize := 2 // evens {0,2}, odds {1} — but 3 left, so odds {1} size 1
			if color == 1 {
				wantSize = 1
			}
			if sub.Size() != wantSize {
				t.Errorf("sub size = %d, want %d", sub.Size(), wantSize)
			}
			// Key -r orders descending by old rank.
			if color == 0 {
				wantRank := map[int]int{2: 0, 0: 1}[r]
				if sub.Rank() != wantRank {
					t.Errorf("rank %d got sub rank %d, want %d", r, sub.Rank(), wantRank)
				}
			}
			sum, err := sub.AllreduceScalar(float64(r), Sum)
			if err != nil {
				t.Errorf("sub allreduce: %v", err)
				return
			}
			want := map[int]float64{0: 2, 1: 1}[color]
			if sum != want {
				t.Errorf("sub allreduce = %v, want %v", sum, want)
			}
		}
		// Everyone (including rank 3) must still agree on the parent comm.
		if got, err := c.AllreduceScalar(1, Sum); err != nil || got != 4 {
			t.Errorf("parent allreduce after split = %v, %v", got, err)
		}

		// A duplicate — one color, keyed by rank — isolates traffic: the
		// same tag on parent and dup carries different payloads and each
		// receive matches its own context.
		dup, err := c.Split(0, r)
		if err != nil {
			t.Errorf("dup: %v", err)
			return
		}
		if dup.Rank() != r || dup.Size() != c.Size() {
			t.Errorf("dup identity = (%d,%d)", dup.Rank(), dup.Size())
		}
		const tag = 21
		peer := r ^ 1
		if err := c.Send(peer, tag, []float64{0}); err != nil {
			t.Errorf("send parent: %v", err)
		}
		if err := dup.Send(peer, tag, []float64{1}); err != nil {
			t.Errorf("send dup: %v", err)
		}
		if p, _, err := dup.Recv(peer, tag); err != nil || p[0] != 1 {
			t.Errorf("dup recv = %v, %v", p, err)
		}
		if p, _, err := c.Recv(peer, tag); err != nil || p[0] != 0 {
			t.Errorf("parent recv = %v, %v", p, err)
		}
	})
}

func TestConformanceZeroLength(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, c *Comm) {
		peer := c.Rank() ^ 1
		// Zero-length and nil payloads are both legal, and both arrive as
		// an empty, non-nil slice: the receiver always gets a fresh one.
		if err := c.Send(peer, 1, []float64{}); err != nil {
			t.Errorf("send empty: %v", err)
		}
		if err := c.Send(peer, 2, nil); err != nil {
			t.Errorf("send nil: %v", err)
		}
		for tag := 1; tag <= 2; tag++ {
			got, _, err := c.Recv(peer, tag)
			if err != nil || got == nil || len(got) != 0 {
				t.Errorf("recv tag %d = %#v, %v", tag, got, err)
			}
		}
		// Zero-length collectives.
		var in []float64
		if c.Rank() == 0 {
			in = []float64{}
		}
		out, err := c.Bcast(0, in)
		if err != nil || len(out) != 0 {
			t.Errorf("bcast empty = %v, %v", out, err)
		}
		red, err := c.AllreduceFloat64([]float64{}, Sum)
		if err != nil || len(red) != 0 {
			t.Errorf("allreduce empty = %v, %v", red, err)
		}
	})
}

func TestConformanceLargePayload(t *testing.T) {
	// 48k float64s = 384 KiB — larger than the 256 KiB shm ring, so the
	// shm path must stream the frame through the ring in pieces; larger
	// than any coalescing buffer on tcp. Checksummed ring pass plus a
	// broadcast.
	if testing.Short() {
		t.Skip("large payloads in -short mode")
	}
	const elems = 48 << 10
	eachBackend(t, 4, func(t *testing.T, c *Comm) {
		n, r := c.Size(), c.Rank()
		payload := make([]float64, elems)
		for i := range payload {
			payload[i] = float64(r*elems + i)
		}
		// Every rank sends before any receives: the ring shift completes
		// only because Send does not wait for the receiver.
		if err := c.Send((r+1)%n, 6, payload); err != nil {
			t.Errorf("send large: %v", err)
			return
		}
		got, _, err := c.Recv((r+n-1)%n, 6)
		if err != nil {
			t.Errorf("recv large: %v", err)
			return
		}
		prev := (r + n - 1) % n
		if len(got) != elems || got[0] != float64(prev*elems) || got[elems-1] != float64(prev*elems+elems-1) {
			t.Errorf("large ring recv corrupted: len %d ends %v,%v", len(got), got[0], got[elems-1])
		}
		var in []float64
		if r == 0 {
			in = payload
		}
		bc, err := c.Bcast(0, in)
		if err != nil || len(bc) != elems || bc[elems-1] != float64(elems-1) {
			t.Errorf("large bcast: len %d, %v", len(bc), err)
		}
	})
}

func TestConformanceTypeFidelity(t *testing.T) {
	// Every payload round-trips with its length and values intact — as an
	// in-memory copy in-process, through the codec across processes.
	// Doubles are compared bit for bit, so a NaN's payload, the sign of a
	// zero and a subnormal all count.
	payloads := [][]float64{
		nil,
		{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), 1 << 53, -(1 << 53)},
		{math.NaN(), math.Float64frombits(0x7ff0dead_beef0001), math.SmallestNonzeroFloat64, math.MaxFloat64},
	}
	eachBackend(t, 2, func(t *testing.T, c *Comm) {
		peer := c.Rank() ^ 1
		for i, p := range payloads {
			if err := c.Send(peer, i, p); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		for i, want := range payloads {
			got, st, err := c.Recv(peer, i)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				continue
			}
			if !bitsEqual(got, want) {
				t.Errorf("payload %d: got %v, want %v", i, got, want)
			}
			if st.Tag != i {
				t.Errorf("payload %d: tag %d", i, st.Tag)
			}
		}
	})
}

// TestConformanceOwnership holds every backend to the one ownership rule:
// a send copies, and each rank owns what it receives. Senders overwrite
// what they sent the moment Send, Bcast or Alltoall returns, receivers
// overwrite what they got, and a barrier orders every overwrite before
// every check, so a payload shared between ranks shows up as a wrong value
// (and under -race as a race). Split's float64 triples carry colors and
// keys up to ±2⁵³ exactly and refuse anything past that on every rank.
func TestConformanceOwnership(t *testing.T) {
	eachBackend(t, 3, func(t *testing.T, c *Comm) {
		n, r := c.Size(), c.Rank()
		fr := float64(r)
		spoil := func(v []float64, x float64) {
			for i := range v {
				v[i] = x
			}
		}
		barrier := func(what string) bool {
			if err := c.Barrier(); err != nil {
				t.Errorf("barrier after %s: %v", what, err)
				return false
			}
			return true
		}

		// Send: overwrite at once; the receiver still sees the sent values.
		v := []float64{fr, fr + 0.5}
		if err := c.Send((r+1)%n, 1, v); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		spoil(v, math.NaN())
		if !barrier("send") {
			return
		}
		prev := float64((r + n - 1) % n)
		if got, _, err := c.Recv((r+n-1)%n, 1); err != nil || !slices.Equal(got, []float64{prev, prev + 0.5}) {
			t.Errorf("rank %d recv = %v, %v; want the values as sent", r, got, err)
		}

		// Bcast: the root overwrites its v, every rank overwrites its
		// result; each result is still its own.
		for root := 0; root < n; root++ {
			var in []float64
			if r == root {
				in = []float64{float64(root), 7}
			}
			out, err := c.Bcast(root, in)
			if err != nil {
				t.Errorf("root %d: bcast: %v", root, err)
				return
			}
			if !slices.Equal(out, []float64{float64(root), 7}) {
				t.Errorf("root %d: rank %d bcast = %v", root, r, out)
			}
			if r == root {
				spoil(in, math.NaN())
			} else {
				spoil(out, -1-fr)
			}
			if !barrier("bcast") {
				return
			}
			if r != root && !slices.Equal(out, []float64{-1 - fr, -1 - fr}) {
				t.Errorf("root %d: rank %d result %v after the barrier, want its own overwrite", root, r, out)
			}
		}

		// Alltoall: every rank overwrites the parts it sent to the others,
		// then what it received; what each rank received is its alone. Its
		// own part comes back as itself.
		parts := make([]any, n)
		for j := range parts {
			parts[j] = []float64{float64(10*r + j)}
		}
		got, err := c.Alltoall(parts)
		if err != nil {
			t.Errorf("alltoall: %v", err)
			return
		}
		if &got[r].([]float64)[0] != &parts[r].([]float64)[0] {
			t.Errorf("rank %d: alltoall returned a copy of its own part", r)
		}
		for j := range parts {
			if j != r {
				spoil(parts[j].([]float64), math.NaN())
			}
		}
		if !barrier("alltoall") {
			return
		}
		for i, p := range got {
			if v := p.([]float64); len(v) != 1 || v[0] != float64(10*i+r) {
				t.Errorf("rank %d alltoall[%d] = %v, want [%d]", r, i, v, 10*i+r)
			}
			spoil(p.([]float64), -1-fr)
		}
		if !barrier("alltoall overwrite") {
			return
		}
		for i, p := range got {
			if v := p.([]float64); v[0] != -1-fr {
				t.Errorf("rank %d alltoall[%d] = %v after the barrier, want its own overwrite", r, i, v)
			}
		}

		// Split at the edge of what a float64 carries exactly: colors ±2⁵³,
		// keys counting down from 2⁵³ so the order reverses.
		const edge = 1 << 53
		color := edge
		if r == 1 {
			color = -edge
		}
		sub, err := c.Split(color, edge-r)
		if err != nil {
			t.Errorf("split at ±2⁵³: %v", err)
			return
		}
		if want := map[int][2]int{0: {2, 1}, 1: {1, 0}, 2: {2, 0}}[r]; sub.Size() != want[0] || sub.Rank() != want[1] {
			t.Errorf("rank %d: sub (size %d, rank %d), want %v", r, sub.Size(), sub.Rank(), want)
		}
		// One past the edge, on one rank at a time, as color and as key:
		// every rank fails alike, and the cohort carries on.
		for bad := 0; bad < n; bad++ {
			for _, past := range []int{edge + 1, -edge - 1} {
				color, key := 0, r
				if r == bad && bad%2 == 0 {
					color = past
				} else if r == bad {
					key = past
				}
				if _, err := c.Split(color, key); !errors.Is(err, ErrSplitRange) {
					t.Errorf("rank %d: split with rank %d at %d = %v, want ErrSplitRange", r, bad, past, err)
				}
			}
		}
		if sum, err := c.AllreduceScalar(1, Sum); err != nil || sum != float64(n) {
			t.Errorf("allreduce after the refused splits = %v, %v", sum, err)
		}
		if dup, err := c.Split(0, r); err != nil || dup.Rank() != r || dup.Size() != n {
			t.Errorf("split after the refused splits = %v, %v", dup, err)
		}
	})
}

// TestAllreduceResultOwned holds Allreduce to its ownership rule: each rank
// owns its result, and no peer reads its contribution after return. Every
// rank overwrites both the moment Allreduce returns. Under -race, any
// sharing between ranks is a reported race; without it, a result shared by
// reference shows up after the barrier as another rank's overwrite.
func TestAllreduceResultOwned(t *testing.T) {
	for _, b := range confBackends() {
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			t.Run(fmt.Sprintf("%s/n=%d", b.name, n), func(t *testing.T) {
				b.run(t, n, func(c *Comm) {
					r := float64(c.Rank())
					contrib := []float64{r, 1, r * r}
					out, err := c.AllreduceFloat64(contrib, Sum)
					if err != nil {
						t.Errorf("allreduce: %v", err)
						return
					}
					got := slices.Clone(out)
					for i := range out {
						out[i], contrib[i] = -1-r, math.NaN()
					}
					sq := float64((n - 1) * n * (2*n - 1) / 6)
					if want := []float64{float64(n * (n - 1) / 2), float64(n), sq}; !slices.Equal(got, want) {
						t.Errorf("rank %v: result %v, want %v", r, got, want)
					}
					if err := c.Barrier(); err != nil {
						t.Errorf("barrier: %v", err)
						return
					}
					for _, v := range out {
						if v != -1-r {
							t.Errorf("rank %v: result %v after the barrier, want its own overwrite %v", r, out, -1-r)
							break
						}
					}
				})
			})
		}
	}
}

// TestCollTagWindowWraparound drives more collectives through a 3-rank
// communicator than the collective tag window holds, on both backends.
// After wraparound, collective k and collective k+collTagWindow share a
// tag; per-pair FIFO ordering is what keeps them from aliasing, and any
// ordering bug shows up as a value from the wrong round.
func TestCollTagWindowWraparound(t *testing.T) {
	if testing.Short() {
		t.Skip("wraparound sweep in -short mode")
	}
	rounds := collTagWindow + 130 // past the wraparound point with margin
	body := func(t *testing.T, c *Comm) {
		for i := 0; i < rounds; i++ {
			switch i % 3 {
			case 0:
				got, err := c.AllreduceScalar(float64(c.Rank()+i), Sum)
				want := float64(3*i + 3) // 0+1+2 ranks + 3i
				if err != nil || got != want {
					t.Errorf("round %d allreduce = %v, %v (want %v)", i, got, err, want)
					return
				}
			case 1:
				root := i % c.Size()
				var in []float64
				if c.Rank() == root {
					in = []float64{float64(i)}
				}
				got, err := c.Bcast(root, in)
				if err != nil || got[0] != float64(i) {
					t.Errorf("round %d bcast = %v, %v", i, got, err)
					return
				}
			case 2:
				if err := c.Barrier(); err != nil {
					t.Errorf("round %d barrier: %v", i, err)
					return
				}
			}
		}
	}
	t.Run("goroutine", func(t *testing.T) { Run(3, func(c *Comm) { body(t, c) }) })
	t.Run("proc", func(t *testing.T) {
		addr := fmt.Sprintf("inproc://wraparound-%d", atomic.AddInt64(&confAddrSeq, 1))
		if err := RunOver(3, addr, func(c *Comm, _ *Proc) { body(t, c) }); err != nil {
			t.Fatal(err)
		}
	})
}
