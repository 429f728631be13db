package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// episode is one piece of fixed work: a set-up from nothing (build, wire,
// dial, fixed warm-up) followed by a fixed number of measured operations.
// A run is as many whole episodes as fit in its time budget, so a slower
// build completes fewer episodes but never a different episode: every
// number a run reports is a median over like-for-like pieces of work.
type episode struct {
	setup  time.Duration // process-visible set-up, warm-up included
	wall   time.Duration // measured phase, first op start to last op end
	opNs   []int64       // latency of every op on the driving caller
	ops    int           // ops completed in wall (all callers)
	failed int           // ops that errored or returned a wrong answer

	allocBytes uint64  // allocated during the measured phase, all goroutines
	heapBytes  uint64  // heap held from the OS at the end of it
	buildMs    float64 // the assembly part of set-up: mesh decompose and wire, or ccl compile
}

// runEpisodes calls one until the measured phases add up to budget, with at
// least minEpisodes so the set-up median has something to stand on.
func runEpisodes(budget time.Duration, minEpisodes int, one func() (episode, error)) ([]episode, error) {
	var eps []episode
	var measured time.Duration
	for measured < budget || len(eps) < minEpisodes {
		ep, err := one()
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		measured += ep.wall
		if ep.ops > 0 {
			fmt.Fprintf(os.Stderr, "episode %d: set-up %.3f s, %d ops in %.3f s (%.1f/s), p50 %.1f us, %d failed\n",
				len(eps), ep.setup.Seconds(), ep.ops, ep.wall.Seconds(), float64(ep.ops)/ep.wall.Seconds(), medianNs(ep.opNs)/1e3, ep.failed)
		}
	}
	return eps, nil
}

// summary folds episodes into the end-to-end numbers.
type summary struct {
	attempted, failed int
	setupS            float64 // median episode set-up
	opsPerS           float64 // median over episodes of ops ÷ wall
	p50us, p99us      float64 // over every op latency of every episode
	episodes          int
	allocKBPerOp      float64
	peakHeapMB        float64
	buildMs           float64 // median over episodes
}

func summarize(eps []episode) summary {
	s := summary{episodes: len(eps)}
	var setups, rates, builds []float64
	var lat []int64
	var alloc uint64
	for _, ep := range eps {
		s.attempted += ep.ops
		s.failed += ep.failed
		setups = append(setups, ep.setup.Seconds())
		rates = append(rates, float64(ep.ops)/ep.wall.Seconds())
		builds = append(builds, ep.buildMs)
		lat = append(lat, ep.opNs...)
		alloc += ep.allocBytes
		s.peakHeapMB = math.Max(s.peakHeapMB, float64(ep.heapBytes)/(1<<20))
	}
	s.allocKBPerOp = float64(alloc) / 1024 / float64(s.attempted)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.setupS = median(setups)
	s.opsPerS = median(rates)
	s.p50us = float64(quantileSorted(lat, 0.5)) / 1e3
	s.p99us = float64(tailSorted(lat)) / 1e3
	s.buildMs = median(builds)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func medianNs(v []int64) float64 {
	c := append([]int64(nil), v...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return float64(quantileSorted(c, 0.5))
}

func quantileSorted(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	return v[int(q*float64(len(v)-1))]
}

// tailSorted returns the highest percentile that still has ten samples
// beyond it (p99 needs 1000 samples, p90 needs 100); with fewer than 20
// samples it is the maximum.
func tailSorted(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	if len(v) < 20 {
		return v[len(v)-1]
	}
	i := len(v) - 11
	if p99 := int(0.99 * float64(len(v)-1)); p99 < i {
		i = p99
	}
	return v[i]
}

// --- benchmark-owned spans ---

// span is one timed interval around a call into a layer. Parent is the
// index of the enclosing span (-1 for a root); Op numbers the operation
// (timestep, call, round) the span belongs to.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory for one goroutine (the driving caller).
// A nil recorder records nothing, so the same code runs traced or not.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
	mute  int  // ops still to ignore: an episode's warm-up
	muted bool // the current op is one of them
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) {
	if r == nil || r.muted {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, StartNs: int64(time.Since(r.t0))})
}

func (r *recorder) end() {
	if r == nil || r.muted {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndNs = int64(time.Since(r.t0))
}

// nextOp starts the next operation; the first mute of them leave no spans.
func (r *recorder) nextOp() {
	if r == nil {
		return
	}
	if r.muted = r.mute > 0; r.muted {
		r.mute--
	} else {
		r.op++
	}
}

// selfTimes returns, per span name, the summed self time in ns (duration
// minus the part covered by child spans) and the number of spans. Self
// times of a tree add up to the duration of its root.
func selfTimes(spans []span) (self map[string]int64, count map[string]int) {
	self, count = map[string]int64{}, map[string]int{}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range spans {
		self[s.Name] += s.EndNs - s.StartNs - child[i]
		count[s.Name]++
	}
	return self, count
}

// maxTraceSpans caps the trace file: the first spans of a run show every
// span kind; the aggregate rows cover all of them.
const maxTraceSpans = 20000

// writeTrace writes the benchmark's spans, the per-layer rows and what the
// library's own span recorder retained (ORB client-call and dispatch spans,
// the last few thousand) to .bench_build/trace/<workload>-seed<seed>.json
// under the working directory.
func writeTrace(c runConfig, spans []span, rows map[string]metric) error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Env      envInfo           `json:"env"`
		Layers   map[string]metric `json:"per_layer"`
		Spans    []span            `json:"spans"`
		ORBSpans []obs.Span        `json:"orb_spans"`
	}{c.workload, c.seed, environment(), rows, spans, obs.Tracer.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- obs counters as before/after deltas ---

type counterSnap map[string]uint64

func counters() counterSnap { return obs.Default.Snapshot().Counters }

func (before counterSnap) delta(name string) float64 {
	return float64(counters()[name] - before[name])
}

func flushWindow() obs.HistSnapshot {
	return obs.Default.Snapshot().Histograms["transport.tcp.flush_window_frames"]
}

// flushWindowMean is the mean of transport.tcp.flush_window_frames since
// the before snapshot.
func flushWindowMean(before obs.HistSnapshot) float64 {
	after := flushWindow()
	if after.Count == before.Count {
		return 0
	}
	return float64(after.Sum-before.Sum) / float64(after.Count-before.Count)
}

// setTracing switches the library's own instruments: counters and
// histograms, and the ORB span recorder.
func setTracing(on bool) {
	obs.SetMetricsEnabled(on)
	obs.Tracer.SetEnabled(on)
}

// offOn is the traced run of a workload whose episodes are all of one
// kind: episodes take turns with the library's instruments off (one(nil))
// and on (one(rec), which also records the benchmark's spans) until the
// budget is spent. off carries the attempted and failed counts of both.
func offOn(c runConfig, one func(rec *recorder) (episode, error)) (off, on summary, rec *recorder, err error) {
	var offs, ons []episode
	rec = newRecorder()
	_, err = runEpisodes(c.budget, c.minEpisodes, func() (episode, error) {
		a, err := one(nil)
		if err != nil {
			return a, err
		}
		offs = append(offs, a)
		setTracing(true)
		b, err := one(rec)
		setTracing(false)
		ons = append(ons, b)
		return episode{wall: a.wall + b.wall}, err
	})
	if err != nil {
		return off, on, rec, err
	}
	off, on = summarize(offs), summarize(ons)
	off.attempted += on.attempted
	off.failed += on.failed
	return off, on, rec, nil
}

// --- memory ---

// memMark reads allocation volume and heap size around a measured phase.
type memMark struct{ total uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc}
}

func (k memMark) since() (alloc, heap uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - k.total, m.HeapSys - m.HeapReleased
}

// common starts a traced run's metric set with the rows every workload
// has: s is the run with the library's instruments off, on the same
// workload with them on.
func (s summary) common(on summary) map[string]metric {
	return map[string]metric{
		"op_p99_us":           {s.p99us, "us"},
		"alloc_kb_per_op":     {s.allocKBPerOp, "KB"},
		"peak_heap_mb":        {s.peakHeapMB, "MB"},
		"trace.overhead_frac": {on.p50us/s.p50us - 1, "ratio"},
	}
}

// must ends the program on an error from which a benchmark run cannot
// continue: a rank that returned early would leave its peers blocked.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if s := math.Max(math.Abs(a), math.Abs(b)); s > 0 {
		return d / s
	}
	return d
}
