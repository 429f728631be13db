package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// spmdBulk is spmd.bulk: two process-backend ranks over shm:// move large
// messages. One op is one AllreduceFloat64 of vecLen doubles followed by
// one Alltoall of partLen-double parts; both results are checked exactly.
type spmdBulk struct {
	vecLen, partLen int // 1 MiB and 256 KiB of float64
	warm, rounds    int // warm-up rounds (part of set-up), measured rounds
}

// part fills the Alltoall payload rank src sends to rank dst.
func (w spmdBulk) part(buf []float64, seedVal float64, src, dst int) {
	for k := range buf {
		buf[k] = seedVal + float64(1000*src+100*dst) + float64(k)
	}
}

func (w spmdBulk) episode(seed int64, rec *recorder) (episode, error) {
	var ep episode
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, w.vecLen) // the same on both ranks, so the sum is 2x exactly
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	seedVal := float64(seed % 1000)
	bad := make([]atomic.Bool, w.rounds)

	t0 := time.Now()
	err := shmRanks(2)(func(comm *mpi.Comm) {
		root := comm.Rank() == 0
		me, peer := comm.Rank(), 1-comm.Rank()
		parts := []any{make([]float64, w.partLen), make([]float64, w.partLen)}
		w.part(parts[0].([]float64), seedVal, me, 0)
		w.part(parts[1].([]float64), seedVal, me, 1)
		want := make([]float64, w.partLen)
		w.part(want, seedVal, peer, me)

		// round does one op and reports whether its answers were right;
		// the clock stops before the comparison.
		round := func(r *recorder) (time.Duration, bool) {
			ts := time.Now()
			r.nextOp()
			r.begin("mpi.allreduce_1m")
			sum, err := comm.AllreduceFloat64(x, mpi.Sum)
			r.end()
			must(err)
			r.begin("mpi.alltoall_256k")
			got, err := comm.Alltoall(parts)
			r.end()
			must(err)
			d := time.Since(ts)

			ok := len(sum) == len(x)
			for i := 0; ok && i < len(x); i++ {
				ok = sum[i] == 2*x[i]
			}
			from, isVec := got[peer].([]float64)
			ok = ok && isVec && len(from) == len(want)
			for i := 0; ok && i < len(want); i++ {
				ok = from[i] == want[i]
			}
			return d, ok
		}
		for i := 0; i < w.warm; i++ {
			round(nil)
		}
		if root {
			runtime.GC()
		}
		must(comm.Barrier())
		var mem memMark
		if root {
			ep.setup = time.Since(t0)
			ep.opNs = make([]int64, 0, w.rounds)
			mem = markMem()
		}
		for i := 0; i < w.rounds; i++ {
			var r *recorder
			if root {
				r = rec
			}
			d, ok := round(r)
			if root {
				ep.opNs = append(ep.opNs, int64(d))
				ep.wall += d
				ep.ops++
			}
			if !ok {
				bad[i].Store(true) // either rank may be the one to see it
			}
		}
		must(comm.Barrier())
		if root {
			ep.allocBytes, ep.heapBytes = mem.since()
		}
	})
	for i := range bad {
		if bad[i].Load() {
			ep.failed++
		}
	}
	return ep, err
}

func (w spmdBulk) run(c runConfig) (summary, map[string]metric, error) {
	if !c.trace {
		eps, err := runEpisodes(c.budget, c.minEpisodes, func() (episode, error) { return w.episode(c.seed, nil) })
		return summarize(eps), nil, err
	}
	before := counters()
	sOff, sOn, rec, err := offOn(c, func(rec *recorder) (episode, error) { return w.episode(c.seed, rec) })
	if err != nil {
		return summary{}, nil, err
	}
	out := sOff.common(sOn)
	// Counter deltas cover the instrumented episodes only: warm-up and
	// measured rounds of both ranks, plus the cohort's formation traffic.
	rounds := float64(sOn.episodes * (w.warm + w.rounds))
	out["mpi.proc.send_frames_per_op"] = metric{before.delta("mpi.proc.send_frames") / rounds, "count"}
	out["mpi.proc.send_bytes_per_op"] = metric{before.delta("mpi.proc.send_bytes") / rounds, "B"}
	out["transport.shm.ring_stalls_per_op"] = metric{before.delta("transport.shm.ring_stalls") / rounds, "count"}
	self, n := selfTimes(rec.spans)
	out["mpi.allreduce_1m_us"] = metric{float64(self["mpi.allreduce_1m"]) / 1e3 / float64(n["mpi.allreduce_1m"]), "us"}
	out["mpi.alltoall_256k_us"] = metric{float64(self["mpi.alltoall_256k"]) / 1e3 / float64(n["mpi.alltoall_256k"]), "us"}
	out["transport.shm_rtt_8b_us"] = metric{exchangeRTT("shm", 8, 8), "us"}
	out["transport.shm_rtt_1m_us"] = metric{exchangeRTT("shm", 1<<20, 1<<20), "us"}
	return sOff, out, writeTrace(c, rec.spans, out)
}
