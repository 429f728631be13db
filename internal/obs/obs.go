package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// metricsOn gates every Counter.Add and Histogram.Observe. Metrics are on
// by default: the E10 benchmark shows the cost is inside the C1 budget.
// Gauges are NOT gated — they track live state (in-flight calls, breaker
// states) whose increments and decrements must stay balanced across a
// toggle, and a pair of atomic adds on an uncontended line is already as
// cheap as the gate check itself.
var metricsOn atomic.Bool

func init() { metricsOn.Store(true) }

// SetMetricsEnabled turns counter and histogram recording on or off
// process-wide. Off turns every record call into a single atomic load.
func SetMetricsEnabled(on bool) { metricsOn.Store(on) }

// MetricsEnabled reports whether counters and histograms record.
func MetricsEnabled() bool { return metricsOn.Load() }

// counterShards spreads one logical counter over this many padded cells.
// Power of two so the shard pick is a mask, sized past the core counts the
// repo targets so concurrent incrementers rarely collide on a cell.
const counterShards = 32

// cell is one counter shard, padded to its own cache line so neighboring
// shards never false-share.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. Add costs one
// atomic load (the gate), a shift, and one atomic add on a line the
// caller rarely shares.
type Counter struct {
	name   string
	shards [counterShards]cell
}

// Add increments the counter by n. No-op while metrics are disabled.
func (c *Counter) Add(n uint64) {
	if !metricsOn.Load() {
		return
	}
	// Shard by the address of a stack local: goroutine stacks sit at
	// least a kilobyte apart, so concurrent incrementers land on distinct
	// cells, and the pick costs a shift and a mask where a random draw
	// would cost several nanoseconds more (measured in bench_test.go).
	// The pointer never escapes — it is consumed as an integer here.
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & (counterShards - 1)
	c.shards[i].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. The sum is not a point-in-time snapshot under
// concurrent writers, but it is never less than the true count at the
// start of the call — the usual counter contract.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous signed value: in-flight calls, connections in
// a health state. Unlike counters, gauges are not gated (see metricsOn).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set pins the gauge to v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets covers observed values up to 2⁶³−1 in power-of-two buckets:
// bucket i holds values whose bit length is i (i.e. [2^(i-1), 2^i−1]),
// with bucket 0 holding zero. For nanosecond latencies that spans sub-ns
// to ~292 years — every duration this repo can produce.
const histBuckets = 64

// Histogram is a fixed-bucket latency histogram. Observe costs the gate
// load, a bits.Len64, and two atomic adds — the observation count is not
// stored separately but derived from the buckets at snapshot time.
type Histogram struct {
	name    string
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value (for latencies: nanoseconds). No-op while
// metrics are disabled.
func (h *Histogram) Observe(v uint64) {
	if !metricsOn.Load() {
		return
	}
	idx := bits.Len64(v)
	if idx >= histBuckets {
		idx = histBuckets - 1 // values ≥ 2⁶³ clamp into the top bucket
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state. Count is the bucket sum,
// so under concurrent writers it may trail Sum by in-flight observations —
// the usual snapshot-consistency caveat, harmless for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Count += n
			s.Buckets = append(s.Buckets, BucketCount{Le: bucketUpper(i), N: n})
		}
	}
	return s
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// BucketCount is one non-empty histogram bucket: N observations ≤ Le.
type BucketCount struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean reports the average observed value, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of the
// bucket where the cumulative count crosses q·Count — an overestimate by
// at most 2×, which is enough to tell 10 µs from 10 ms on a dashboard.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		cum += float64(b.N)
		if cum >= target {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// Registry holds named metrics. Metric constructors are get-or-create and
// safe for concurrent use; the instruments they return are cached by the
// caller and never looked up on the hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string][]func() uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string][]func() uint64{},
	}
}

// Default is the process-wide registry every layer of the stack registers
// into; ccafe stats and the HTTP endpoint read it.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// AddCounterFunc registers a sampled counter: fn is called at snapshot
// time and its result added to the named counter's reading. Multiple
// registrations under one name sum, so several producers (e.g. every live
// Framework) each contribute a share. This is the zero-overhead counting
// path for hot loops that already maintain a count in their own state and
// cannot afford even one extra atomic RMW per call — the packed GetPort
// acquisition count is the canonical producer. fn must be safe to call
// from any goroutine and must not call back into this registry.
func (r *Registry) AddCounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	r.funcs[name] = append(r.funcs[name], fn)
	r.mu.Unlock()
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// AddCounterFunc registers a sampled counter in the Default registry.
func AddCounterFunc(name string, fn func() uint64) { Default.AddCounterFunc(name, fn) }

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	cs := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	gs := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gs = append(gs, g)
	}
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	type namedFuncs struct {
		name string
		fns  []func() uint64
	}
	fs := make([]namedFuncs, 0, len(r.funcs))
	for n, fns := range r.funcs {
		fs = append(fs, namedFuncs{n, fns})
	}
	r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(cs)),
		Gauges:     make(map[string]int64, len(gs)),
		Histograms: make(map[string]HistSnapshot, len(hs)),
	}
	for _, c := range cs {
		s.Counters[c.name] = c.Value()
	}
	// Sampled counters are called outside the registry lock (they may take
	// their producer's lock) and add into any same-named stored counter.
	for _, nf := range fs {
		for _, fn := range nf.fns {
			s.Counters[nf.name] += fn()
		}
	}
	for _, g := range gs {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hs {
		s.Histograms[h.name] = h.Snapshot()
	}
	return s
}

// Names lists every registered metric name, sorted — the `ccafe stats`
// listing order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[string]struct{}, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for n := range r.counters {
		seen[n] = struct{}{}
	}
	for n := range r.gauges {
		seen[n] = struct{}{}
	}
	for n := range r.hists {
		seen[n] = struct{}{}
	}
	for n := range r.funcs {
		seen[n] = struct{}{}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
