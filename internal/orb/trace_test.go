package orb

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestTracePropagation proves the tentpole wiring: a traced remote call
// leaves a client-call span on the caller and a dispatch span (carrying
// the server's queueing delay) on the callee, sharing one nonzero trace
// ID — the ID crossed the wire in the v2 frame header and came back in
// the reply.
func TestTracePropagation(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("traced")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	c, err := DialClient(tr, "traced")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obs.Tracer.SetEnabled(true)
	defer obs.Tracer.SetEnabled(false)

	if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	// The dispatch span is recorded before the reply is sent, and the
	// client-call span before Invoke returns — both are visible now
	// without any synchronization. Spans() is oldest-first, so byKind
	// keeps this call's spans over any an earlier test left in the ring.
	byKind := map[obs.SpanKind]obs.Span{}
	for _, s := range obs.Tracer.Spans() {
		byKind[s.Kind] = s
	}
	cc, ok := byKind[obs.SpanClientCall]
	if !ok {
		t.Fatalf("no client-call span in %v", obs.Tracer.Spans())
	}
	if cc.Trace == 0 || cc.Key != "calc" || cc.Method != "add" || cc.Err != "" {
		t.Fatalf("client-call span = %+v", cc)
	}
	dp, ok := byKind[obs.SpanDispatch]
	if !ok {
		t.Fatal("no dispatch span: trace ID did not cross the wire")
	}
	if dp.Trace != cc.Trace {
		t.Fatalf("span trace IDs disagree: client=%d dispatch=%d", cc.Trace, dp.Trace)
	}
	if dp.Key != "calc" || dp.Method != "add" || dp.Err != "" {
		t.Fatalf("dispatch span = %+v", dp)
	}
	// A remote dispatch carries its queueing delay (arrival → dispatch
	// slot), and the client-side round trip bounds the server-side work.
	if dp.Queue < 0 || dp.Queue > cc.Dur {
		t.Fatalf("dispatch queue delay %v outside [0, %v]", dp.Queue, cc.Dur)
	}

	// A failing call's spans carry the error.
	if _, err := c.Invoke("ghost", "m"); err == nil {
		t.Fatal("call to missing object succeeded")
	}
	byKind = map[obs.SpanKind]obs.Span{}
	for _, s := range obs.Tracer.Spans() {
		byKind[s.Kind] = s
	}
	if byKind[obs.SpanClientCall].Err == "" || byKind[obs.SpanDispatch].Err == "" {
		t.Fatalf("error not recorded on spans: %+v", obs.Tracer.Spans())
	}
}

// TestUntracedCallsRecordNothing pins the off switch: with tracing
// disabled, frames carry trace ID 0 and no span is recorded anywhere.
func TestUntracedCallsRecordNothing(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("untraced")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	c, err := DialClient(tr, "untraced")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := obs.Tracer.Recorded()
	if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	if n := obs.Tracer.Recorded() - before; n != 0 {
		t.Fatalf("untraced call recorded %d spans", n)
	}
}

// TestClientServerRED pins the per-method RED wiring: one successful
// remote call moves the client and server call counters and duration
// histograms for exactly that method, and a classified error lands in the
// right error counter.
func TestClientServerRED(t *testing.T) {
	// Durations are normally a 1-in-8 sample; observe every call so one
	// invoke moves the histogram deterministically.
	oldMask := redSampleMask
	redSampleMask = 0
	defer func() { redSampleMask = oldMask }()

	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("red")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	c, err := DialClient(tr, "red")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, sv := clientRED("add"), serverRED("add")
	calls0, durs0 := cli.calls.Value(), cli.dur.Snapshot().Count
	sCalls0 := sv.calls.Value()
	fatal0 := cli.errs[ClassFatal].Value()

	if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	if got := cli.calls.Value(); got != calls0+1 {
		t.Fatalf("client calls = %d, want %d", got, calls0+1)
	}
	if got := cli.dur.Snapshot().Count; got != durs0+1 {
		t.Fatalf("client durations = %d, want %d", got, durs0+1)
	}
	if got := sv.calls.Value(); got != sCalls0+1 {
		t.Fatalf("server calls = %d, want %d", got, sCalls0+1)
	}
	if got := gClientInflight.Value(); got < 0 {
		t.Fatalf("in-flight gauge went negative: %d", got)
	}

	// A remote exception classifies Fatal on the client side.
	if _, err := c.Invoke("calc", "add", "not-a-number"); err == nil {
		t.Fatal("bad-argument call succeeded")
	}
	if got := cli.errs[ClassFatal].Value(); got != fatal0+1 {
		t.Fatalf("client fatal errors = %d, want %d", got, fatal0+1)
	}
}

// TestREDSamplesOneInEightTracedOrNot pins the one sampling rule at the
// default redSampleMask: rates are exact, durations are observed for 1
// call in 8 on each side whether or not the call is traced, and a traced
// call still records both spans with their exact durations. The calls are
// sequential, so any 16 of them draw exactly two sampling ticks per side.
func TestREDSamplesOneInEightTracedOrNot(t *testing.T) {
	if redSampleMask != 7 {
		t.Fatalf("redSampleMask = %d, want the default 7", redSampleMask)
	}
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("sampled")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	c, err := DialClient(tr, "sampled")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	cli, sv := clientRED("greet"), serverRED("greet")
	for _, traced := range []bool{false, true} {
		obs.Tracer.SetEnabled(traced)
		calls0, sCalls0 := cli.calls.Value(), sv.calls.Value()
		durs0, sDurs0 := cli.dur.Snapshot().Count, sv.dur.Snapshot().Count
		spans0 := obs.Tracer.Recorded()
		for i := 0; i < n; i++ {
			if _, err := c.Invoke("calc", "greet", "x"); err != nil {
				t.Fatal(err)
			}
		}
		obs.Tracer.SetEnabled(false)
		if got := cli.calls.Value() - calls0; got != n {
			t.Errorf("traced=%v: client calls +%d, want +%d", traced, got, n)
		}
		if got := sv.calls.Value() - sCalls0; got != n {
			t.Errorf("traced=%v: server calls +%d, want +%d", traced, got, n)
		}
		if got := cli.dur.Snapshot().Count - durs0; got != n/8 {
			t.Errorf("traced=%v: client durations +%d, want +%d", traced, got, n/8)
		}
		if got := sv.dur.Snapshot().Count - sDurs0; got != n/8 {
			t.Errorf("traced=%v: server durations +%d, want +%d", traced, got, n/8)
		}
		wantSpans := uint64(0)
		if traced {
			wantSpans = 2 * n // a client-call and a dispatch span per call
		}
		if got := obs.Tracer.Recorded() - spans0; got != wantSpans {
			t.Errorf("traced=%v: %d spans recorded, want %d", traced, got, wantSpans)
		}
	}
}
