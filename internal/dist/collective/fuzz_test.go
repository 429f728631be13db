package collective

// Protocol fuzzing: the collective/<name> servant is driven by whatever a
// remote peer decodes into (method, args). It must answer garbage with an
// error — never panic, never size an allocation from a number the peer
// chose — and any chunk it does serve must be exactly the requested window
// of the pair's packed stream.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/orb"
)

func FuzzPublisherHandle(f *testing.F) {
	const gl = 61
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.25
	}
	src, dst := array.NewBlockMap(gl, 3), array.NewCyclicMap(gl, 2, 5)
	pub, err := Publish(orb.NewObjectAdapter(), "wave", cohort(src, global))
	if err != nil {
		f.Fatal(err)
	}
	defer pub.Close()
	// One plan and epoch 1 are live for every input; the consumer-side twin
	// of the plan is the oracle for served chunks.
	call := func(method string, args ...any) []any {
		var reply orb.Encoder
		if err := pub.handle(method, args, &reply); err != nil {
			f.Fatal(err)
		}
		res, err := orb.DecodeAll(reply.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		return res
	}
	planID := call("exchange", int32(gl), encodeRuns(dst))[0].(int64)
	epoch := call("begin", planID)[0].(int64)
	m := src.Ranks()
	twin, err := ccoll.NewPlan(sideOf(src, 0), sideOf(dst, m))
	if err != nil {
		f.Fatal(err)
	}

	seed := func(method string, args ...any) {
		b, err := orb.EncodeAll(args...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(method, b)
	}
	seed("exchange", int32(gl), encodeRuns(dst))
	seed("exchange", int32(gl), encodeRuns(array.NewSerialMap(gl)))
	seed("exchange", int32(gl), []int32{0, gl, math.MaxInt32, 0})
	seed("exchange", int32(math.MaxInt32), []int32{0, math.MaxInt32, math.MaxInt32 - 1, 0})
	seed("exchange", int32(-1), []int32{})
	seed("begin", planID)
	seed("begin", int64(77))
	seed("chunk", planID, epoch, int32(0), int32(0), int32(0), int32(4))
	seed("chunk", planID, epoch, int32(2), int32(1), int32(3), int32(5))
	seed("chunk", planID, epoch, int32(0), int32(0), int32(0), int32(math.MaxInt32))
	seed("chunk", planID, epoch, int32(0), int32(0), int32(math.MaxInt32), int32(math.MaxInt32))
	seed("chunk", planID, epoch+9, int32(0), int32(0), int32(0), int32(1))
	seed("chunk", planID, epoch, int32(-1), int32(7), int32(-1), int32(-1))
	seed("end", planID, epoch)
	seed("describe")
	seed("", "chunk", 1.5, []float64{1})

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, method string, argBytes []byte) {
		args, err := orb.DecodeAll(argBytes)
		if err != nil {
			return // the ORB rejects the request before any servant sees it
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var reply orb.Encoder
		err = pub.handle(method, args, &reply)
		runtime.ReadMemStats(&ms)
		// The cohort holds 61 doubles and the request a few KB at most;
		// 1 MiB + 64× the input is generous for anything sized from them.
		if grew, limit := ms.TotalAlloc-before, uint64(1<<20+64*len(argBytes)); grew > limit {
			t.Fatalf("%s%v allocated %d bytes (limit %d)", method, args, grew, limit)
		}
		if err != nil || method != "chunk" {
			return
		}
		// handle validated the types on its way to success.
		srcRank, dstRank := int(args[2].(int32)), int(args[3].(int32))
		lo, count := int(args[4].(int32)), int(args[5].(int32))
		if args[0].(int64) != planID {
			return // a plan some earlier input exchanged; no twin to hand
		}
		raw, err := orb.NewDecoder(reply.Bytes()).RawFloat64s()
		if err != nil || len(raw) != 8*count {
			t.Fatalf("chunk reply: %d bytes, err %v; want %d", len(raw), err, 8*count)
		}
		pair, ok := twin.Pair(srcRank, m+dstRank)
		if !ok {
			t.Fatalf("served a chunk for %d→%d, which moves no data", srcRank, dstRank)
		}
		// Serial oracle: scatter the window into a NaN canvas; exactly count
		// cells land, each holding what the consumer rank owns there.
		got := make([]float64, dst.LocalLen(dstRank))
		for i := range got {
			got[i] = math.NaN()
		}
		if err := pair.UnpackBytes(raw, lo, got); err != nil {
			t.Fatal(err)
		}
		want, landed := wantLocal(dst, global, dstRank), 0
		for i, v := range got {
			if math.IsNaN(v) {
				continue
			}
			landed++
			if v != want[i] {
				t.Fatalf("chunk %d→%d [%d,+%d): local %d = %v, want %v", srcRank, dstRank, lo, count, i, v, want[i])
			}
		}
		if landed != count {
			t.Fatalf("chunk %d→%d [%d,+%d) filled %d cells", srcRank, dstRank, lo, count, landed)
		}
	})
}
