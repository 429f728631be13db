package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.calls")
	const workers, per = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestCounterGate(t *testing.T) {
	defer SetMetricsEnabled(true)
	c := NewRegistry().Counter("gated")
	SetMetricsEnabled(false)
	c.Add(100)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d", got)
	}
	SetMetricsEnabled(true)
	c.Add(3)
	if got := c.Value(); got != 3 {
		t.Fatalf("re-enabled counter = %d, want 3", got)
	}
}

func TestGaugeUngated(t *testing.T) {
	defer SetMetricsEnabled(true)
	g := NewRegistry().Gauge("inflight")
	SetMetricsEnabled(false)
	g.Add(2)
	g.Add(-1)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1 (gauges must not be gated)", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 1000, 1 << 40, ^uint64(0)} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	wantSum := uint64(0 + 1 + 2 + 3 + 1000 + 1<<40)
	wantSum += ^uint64(0) // wraps: the histogram sum is modular by design
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// 0→bucket 0 (le 0); 1→le 1; 2,3→le 3; 1000→le 1023; 2^40→le 2^41−1;
	// max uint64 clamps into the top bucket (le 2^63−1).
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 1023: 1, 1<<41 - 1: 1, 1<<63 - 1: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.N {
			t.Fatalf("bucket le=%d n=%d, want n=%d", b.Le, b.N, want[b.Le])
		}
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := s.Quantile(1); q != 1<<63-1 {
		t.Fatalf("p100 = %d, want top bucket", q)
	}
	if m := s.Mean(); m <= 0 {
		t.Fatalf("mean = %v, want > 0", m)
	}
}

func TestRegistryIdempotentAndNames(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("Histogram not idempotent")
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names = %v, want [a b c]", names)
	}
	r.Counter("a").Add(5)
	r.Gauge("b").Set(-2)
	r.Histogram("c").Observe(9)
	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Gauges["b"] != -2 || s.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	rec.Record(Span{Trace: 99}) // disabled: dropped
	if rec.Recorded() != 0 {
		t.Fatal("disabled recorder recorded a span")
	}
	rec.SetEnabled(true)
	for i := 1; i <= 6; i++ {
		rec.Record(Span{Trace: uint64(i), Kind: SpanClientCall})
	}
	if rec.Recorded() != 6 {
		t.Fatalf("recorded = %d, want 6", rec.Recorded())
	}
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(i + 3); s.Trace != want {
			t.Fatalf("span[%d].Trace = %d, want %d (oldest-first)", i, s.Trace, want)
		}
	}
}

func TestTraceIDs(t *testing.T) {
	rec := Tracer
	was := rec.Enabled()
	defer rec.SetEnabled(was)
	rec.SetEnabled(false)
	if id := ActiveTraceID(); id != 0 {
		t.Fatalf("ActiveTraceID with tracing off = %d, want 0", id)
	}
	rec.SetEnabled(true)
	a, b := ActiveTraceID(), ActiveTraceID()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("trace IDs not fresh nonzero: %d, %d", a, b)
	}
}

// TestMonoTracksNanotime pins the TSC fast clock to the runtime clock: on
// amd64 the two must advance at the same rate once calibration lands (on
// other architectures Mono IS nanotime, and this trivially holds).
func TestMonoTracksNanotime(t *testing.T) {
	time.Sleep(30 * time.Millisecond) // let the first TSC calibration land
	d0 := Mono() - nanotime()
	time.Sleep(50 * time.Millisecond)
	d1 := Mono() - nanotime()
	if drift := d1 - d0; drift < -5e6 || drift > 5e6 {
		t.Fatalf("Mono drifted %dns from nanotime over 50ms", drift)
	}
	prev := Mono()
	for i := 0; i < 1000; i++ {
		cur := Mono()
		if cur < prev {
			t.Fatalf("Mono went backwards: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestSpanKindStrings(t *testing.T) {
	for k, want := range map[SpanKind]string{
		SpanClientCall: "client-call", SpanOneway: "oneway",
		SpanDispatch: "dispatch", SpanKind(200): "span(?)",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("http.hits").Add(2)
	r.Histogram("http.lat").Observe(1500)
	rec := NewRecorder(8)
	rec.SetEnabled(true)
	rec.Record(Span{Trace: 7, Kind: SpanDispatch, Key: "calc", Method: "add", Dur: 5 * time.Microsecond})

	mux := http.NewServeMux()
	mux.Handle("/metrics", HandlerFor(r, rec))
	srv := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics?spans=10", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
			P99   uint64 `json:"p99"`
		} `json:"histograms"`
		Tracing struct {
			Enabled  bool   `json:"enabled"`
			Recorded uint64 `json:"recorded"`
		} `json:"tracing"`
		Spans []Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["http.hits"] != 2 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if h := doc.Histograms["http.lat"]; h.Count != 1 || h.P99 < 1500 {
		t.Fatalf("histogram view = %+v", h)
	}
	if !doc.Tracing.Enabled || doc.Tracing.Recorded != 1 || len(doc.Spans) != 1 {
		t.Fatalf("tracing view = %+v spans=%d", doc.Tracing, len(doc.Spans))
	}
	if doc.Spans[0].Method != "add" || doc.Spans[0].Kind != SpanDispatch {
		t.Fatalf("span = %+v", doc.Spans[0])
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	addr, closer, err := ServeWith("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
}
