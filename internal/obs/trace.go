package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Tracing follows one remote port call across processes. The ORB's v2
// frames carry an 8-byte trace ID next to the correlation ID; a client
// call with tracing enabled draws a fresh nonzero ID, stamps it into the
// request frame, and the server echoes it into the reply — so the spans a
// call leaves behind (client-call on the caller, dispatch — with its
// queueing delay — on the callee) share one trace ID and can be joined
// into a timeline.
// Trace ID 0 means "untraced": the wire format always has room for the ID,
// but no span is recorded for it anywhere.
//
// Recording is off by default — unlike the counters, a span captures two
// strings and a timestamp per hop, which is real work on a hot path — and
// flips on with Tracer.SetEnabled(true) (or `ccafe trace on`). Spans land
// in a fixed-size ring: the recorder never allocates after construction
// and never blocks a caller longer than one ring-slot copy under a mutex.

// SpanKind says which hop of a call a span describes.
type SpanKind uint8

// Span kinds, in the order a two-way call produces them.
const (
	// SpanClientCall covers the full client-side round trip: encode, send,
	// and wait for the matching reply.
	SpanClientCall SpanKind = iota
	// SpanOneway covers a fire-and-forget send (no reply, so its duration
	// is the local encode+enqueue cost only).
	SpanOneway
	// SpanDispatch covers the server-side work: decode, servant lookup,
	// dynamic invocation, reply encode. Its Queue field carries the time
	// the frame spent between the read loop and a dispatch slot.
	SpanDispatch
)

func (k SpanKind) String() string {
	switch k {
	case SpanClientCall:
		return "client-call"
	case SpanOneway:
		return "oneway"
	case SpanDispatch:
		return "dispatch"
	default:
		return "span(?)"
	}
}

// Span is one recorded hop of a traced call.
type Span struct {
	Trace  uint64        `json:"trace"`
	Kind   SpanKind      `json:"kind"`
	Key    string        `json:"key,omitempty"`
	Method string        `json:"method,omitempty"`
	Start  int64         `json:"start_unix_ns"`
	Dur    time.Duration `json:"dur_ns"`
	// Queue is the time a server-side frame waited between its arrival in
	// the read loop and the start of its dispatch (dispatch spans only) —
	// the server's internal queueing delay, split out from Dur.
	Queue time.Duration `json:"queue_ns,omitempty"`
	Err   string        `json:"err,omitempty"`
}

// traceStripes is the number of independent rings a Recorder spreads
// recording goroutines across. A traced call records spans from three
// different goroutines (caller, server read loop, dispatch worker); with a
// single ring those three serialize on one mutex whose cache line bounces
// between cores on every hop. Stripes keep each goroutine on its own
// mutex+ring (selected by a stack-address hash, so a goroutine sticks to
// one stripe) at the cost of merging on read — the right trade for a
// write-often read-rarely debugging aid.
const traceStripes = 4

type traceStripe struct {
	mu   sync.Mutex
	ring []Span
	n    uint64 // total spans ever recorded here; ring cursor is n % len
	_    [64]byte
}

// Recorder is a fixed-capacity span ring, striped for concurrent
// recording. The zero value is unusable; use NewRecorder.
type Recorder struct {
	on      atomic.Bool
	stripes [traceStripes]traceStripe
}

// NewRecorder creates a disabled recorder. Each stripe retains the last
// `size` spans recorded through it, so a single recording goroutine always
// sees its `size` most recent spans and the recorder as a whole holds at
// most traceStripes*size.
func NewRecorder(size int) *Recorder {
	if size < 1 {
		size = 1
	}
	r := &Recorder{}
	for i := range r.stripes {
		r.stripes[i].ring = make([]Span, size)
	}
	return r
}

// Tracer is the process-wide recorder the ORB records into.
var Tracer = NewRecorder(4096)

// SetEnabled turns span recording (and trace-ID stamping) on or off.
func (r *Recorder) SetEnabled(on bool) { r.on.Store(on) }

// Enabled reports whether spans are being recorded.
func (r *Recorder) Enabled() bool { return r.on.Load() }

// Record stores a span in the recording goroutine's stripe, overwriting
// the oldest once that ring is full. No-op while the recorder is disabled.
func (r *Recorder) Record(s Span) {
	if !r.on.Load() {
		return
	}
	// Stripe by goroutine stack address (same trick as Counter.Add): a
	// goroutine's locals sit on its own stack, so each recording goroutine
	// consistently hits one stripe and the mutexes never bounce between
	// the hops of a traced call.
	var probe byte
	st := &r.stripes[(uintptr(unsafe.Pointer(&probe))>>10)%traceStripes]
	st.mu.Lock()
	st.ring[st.n%uint64(len(st.ring))] = s
	st.n++
	st.mu.Unlock()
}

// Recorded reports how many spans have ever been recorded (including ones
// the rings have since overwritten).
func (r *Recorder) Recorded() uint64 {
	var total uint64
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		total += st.n
		st.mu.Unlock()
	}
	return total
}

// Spans copies out the retained spans in timeline order (by Start; spans
// recorded through one stripe keep their recording order when Starts tie,
// so single-goroutine traces come back exactly as recorded).
func (r *Recorder) Spans() []Span {
	var out []Span
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		size := uint64(len(st.ring))
		kept := st.n
		if kept > size {
			kept = size
		}
		for j := st.n - kept; j < st.n; j++ {
			out = append(out, st.ring[j%size])
		}
		st.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// traceSeq hands out trace IDs. Seeded from the clock so IDs from
// processes started at different times rarely collide — good enough for
// joining spans by eye or script; this is a debugging aid, not a
// distributed-uniqueness guarantee.
var traceSeq atomic.Uint64

func init() { traceSeq.Store(uint64(time.Now().UnixNano()) << 16) }

// NextTraceID draws a fresh nonzero trace ID.
func NextTraceID() uint64 {
	for {
		if id := traceSeq.Add(1); id != 0 {
			return id
		}
	}
}

// ActiveTraceID draws a trace ID when the process-wide Tracer is enabled,
// and returns 0 (untraced) otherwise — the one call sites make per call.
func ActiveTraceID() uint64 {
	if !Tracer.Enabled() {
		return 0
	}
	return NextTraceID()
}
