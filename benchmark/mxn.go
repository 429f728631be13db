package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	dcoll "repro/internal/dist/collective"
	"repro/internal/orb"
	"repro/internal/transport"
)

// mxnPull is mxn.pull: a publisher with the epoch cache serves a block(2)
// array over tcp loopback; a consumer assembled from mxn-consumer.ccl pulls
// it cyclic(2, block 64). One op is publisher.Advance() followed by two
// PullAllInto for both consumer ranks: the first comes after a write, so
// every chunk misses the frame cache and is packed; the second asks for the
// same epoch again and is served from the cache. A change to the cache has
// to hold on both halves of the op.
type mxnPull struct {
	length       int // fixed by mxn-consumer.ccl
	warm, rounds int
}

const (
	mxnBlock  = 64 // cyclic block size, as in mxn-consumer.ccl
	mxnStride = 4096
)

// field is one provider rank's chunk of the published array.
type field struct {
	side ccoll.Side
	data []float64
}

func (f *field) Side() ccoll.Side     { return f.side }
func (f *field) LocalData() []float64 { return f.data }

// value is the published array: a seed-dependent ramp, with every
// mxnStride-th element also carrying the round, so a pull that served a
// stale epoch is a wrong answer.
func (w mxnPull) value(seedVal float64, g, round int) float64 {
	v := seedVal + float64(g)/1e6
	if g%mxnStride == 0 {
		v += float64(round)
	}
	return v
}

// placed reports whether outs holds the round's array in the analytic
// cyclic placement: block b of mxnBlock elements lives on rank b mod 2 at
// local offset (b/2)·mxnBlock.
func (w mxnPull) placed(outs [][]float64, seedVal float64, round int) bool {
	for b := 0; b*mxnBlock < w.length; b++ {
		lo := b * mxnBlock
		n := min(mxnBlock, w.length-lo)
		local := outs[b%2]
		at := b / 2 * mxnBlock
		if at+n > len(local) {
			return false
		}
		for k, v := range local[at : at+n] {
			if v != w.value(seedVal, lo+k, round) {
				return false
			}
		}
	}
	return true
}

func (w mxnPull) episode(seed int64, lockDir string, rec *recorder) (episode, error) {
	seedVal := float64(seed % 1000)
	t0 := time.Now()

	// Providing side: two ranks' chunks, published with the epoch cache.
	srcMap := array.NewBlockMap(w.length, 2)
	fields := make([]*field, 2)
	ports := make([]ccoll.DistArrayPort, 2)
	for r := range fields {
		fields[r] = &field{side: ccoll.Side{Map: srcMap}, data: make([]float64, srcMap.LocalLen(r))}
		ports[r] = fields[r]
	}
	half := srcMap.LocalLen(0)
	write := func(round int, all bool) {
		step := mxnStride
		if all {
			step = 1
		}
		for g := 0; g < w.length; g += step {
			fields[g/half].data[g%half] = w.value(seedVal, g, round)
		}
	}
	write(0, true)
	oa := orb.NewObjectAdapter()
	pub, err := dcoll.Publish(oa, "field", ports, dcoll.WithEpochCache())
	if err != nil {
		return episode{}, err
	}
	defer pub.Close()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return episode{}, err
	}
	srv := orb.Serve(oa, l)
	defer srv.Close()

	// Consuming side, from the document.
	tc := time.Now()
	asm, err := compileDoc("mxn-consumer.ccl", lockDir, map[string]string{"PUB_ADDR": srv.Addr()})
	if err != nil {
		return episode{}, err
	}
	defer asm.Close()
	compileMs := time.Since(tc).Seconds() * 1e3
	port, err := asm.App.Port("viz", "in")
	if err != nil {
		return episode{}, err
	}
	imp, ok := port.(*dcoll.Import)
	if !ok {
		return episode{}, fmt.Errorf("mxn: consumer port is %T", port)
	}
	// One set of chunks per pull of an op. The first is checked element by
	// element; the second must equal it, and a pull that did nothing would
	// leave the previous round's sentinels behind.
	outs, again := make([][]float64, imp.Ranks()), make([][]float64, imp.Ranks())
	for r := range outs {
		outs[r] = make([]float64, imp.LocalLen(r))
		again[r] = make([]float64, imp.LocalLen(r))
	}

	ctx := context.Background()
	round := 0
	one := func(r *recorder) (time.Duration, bool) {
		round++
		write(round, false) // the simulation's timestep: outside the op
		ts := time.Now()
		r.nextOp()
		r.begin("distcoll.advance")
		pub.Advance()
		r.end()
		r.begin("distcoll.pull_miss")
		err := imp.PullAllInto(ctx, outs)
		r.end()
		if err == nil {
			r.begin("distcoll.pull_hit")
			err = imp.PullAllInto(ctx, again)
			r.end()
		}
		d := time.Since(ts)
		ok := err == nil && w.placed(outs, seedVal, round)
		for r := range outs {
			ok = ok && slices.Equal(outs[r], again[r])
		}
		return d, ok
	}
	for i := 0; i < w.warm; i++ {
		if _, ok := one(nil); !ok {
			return episode{}, fmt.Errorf("mxn: warm-up pull %d failed", i)
		}
	}
	runtime.GC()
	ep := episode{setup: time.Since(t0), ops: w.rounds, opNs: make([]int64, 0, w.rounds), buildMs: compileMs}
	mem := markMem()
	for i := 0; i < w.rounds; i++ {
		d, ok := one(rec)
		ep.opNs = append(ep.opNs, int64(d))
		ep.wall += d
		if !ok {
			ep.failed++
		}
	}
	ep.allocBytes, ep.heapBytes = mem.since()
	return ep, nil
}

func (w mxnPull) run(c runConfig) (summary, map[string]metric, error) {
	lockDir, err := os.MkdirTemp(tmpDir(), "lock-*")
	if err != nil {
		return summary{}, nil, err
	}
	defer os.RemoveAll(lockDir)
	one := func(rec *recorder) (episode, error) { return w.episode(c.seed, lockDir, rec) }
	if !c.trace {
		eps, err := runEpisodes(c.budget, c.minEpisodes, func() (episode, error) { return one(nil) })
		return summarize(eps), nil, err
	}
	before := counters()
	sOff, sOn, rec, err := offOn(c, one)
	if err != nil {
		return summary{}, nil, err
	}
	out := sOff.common(sOn)
	ratio := func(hit, miss string) float64 {
		h, m := before.delta(hit), before.delta(miss)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	pulls := float64(2 * sOn.episodes * (w.warm + w.rounds))
	out["distcoll.frame_hit_ratio"] = metric{ratio("collective.frame_cache_hits", "collective.frame_cache_misses"), "ratio"}
	out["distcoll.epoch_hit_ratio"] = metric{ratio("collective.epoch_cache_hits", "collective.epoch_cache_misses"), "ratio"}
	out["distcoll.chunks_per_pull"] = metric{before.delta("collective.chunks_pulled") / pulls, "count"}
	out["transport.bytes_sent_per_op"] = metric{2 * before.delta("transport.bytes_sent") / pulls, "B"}
	out["orb.supervised.retries"] = metric{before.delta("orb.supervised.retries"), "count"}
	out["orb.supervised.redials"] = metric{before.delta("orb.supervised.redials"), "count"}
	out["orb.server.shed"] = metric{before.delta("orb.server.shed"), "count"}
	out["assembly.ccl_compile_ms"] = metric{sOff.buildMs, "ms"}
	self, n := selfTimes(rec.spans)
	for _, name := range []string{"distcoll.advance", "distcoll.pull_miss", "distcoll.pull_hit"} {
		out[name+"_us"] = metric{float64(self[name]) / 1e3 / float64(n[name]), "us"}
	}

	// The floors under a pull of these bytes.
	var plans []int64
	for i := 0; i < 12; i++ {
		t0 := time.Now()
		if _, err := ccoll.NewPlan(ccoll.Block(w.length, []int{0, 1}), ccoll.Cyclic(w.length, mxnBlock, []int{2, 3})); err != nil {
			return summary{}, nil, err
		}
		plans = append(plans, int64(time.Since(t0)))
	}
	chunk := dcoll.Options{}.ChunkBytes
	if chunk == 0 {
		chunk = 16 * transport.CoalesceCutoff // the attachment's default
	}
	out["collective.plan_us"] = metric{medianNs(plans) / 1e3, "us"}
	out["machine.memcpy_gb_per_s"] = metric{memcpyGBps(8 * w.length), "GB/s"}
	out["transport.tcp_stream_floor_us"] = metric{streamFloorUs(8*w.length, chunk), "us"}
	payload := make([]float64, chunk/8)
	var marshal []int64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		b, err := orb.EncodeAll(payload)
		if err == nil {
			_, err = orb.DecodeAll(b)
		}
		if err != nil {
			return summary{}, nil, err
		}
		marshal = append(marshal, int64(time.Since(t0)))
	}
	out["orb.marshal_us"] = metric{medianNs(marshal) / 1e3, "us"}
	return sOff, out, writeTrace(c, rec.spans, out)
}
