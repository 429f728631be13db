package orb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sidl"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

func TestCDRRoundTripAllTypes(t *testing.T) {
	vals := []any{
		nil, true, false,
		int32(-7), int64(1 << 40), int(-99),
		3.14159, complex(1.5, -2.5),
		"hello", []byte{0, 1, 2, 255},
		[]float64{1, 2, 3.5}, []int32{-1, 0, 1},
		[]string{"a", "", "c"},
	}
	b, err := EncodeAll(vals...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !reflect.DeepEqual(got[i], vals[i]) {
			t.Errorf("value %d: %#v != %#v", i, got[i], vals[i])
		}
	}
}

func TestCDRSpecials(t *testing.T) {
	b, err := EncodeAll(math.Inf(1), math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got[0].(float64), 1) || !math.IsNaN(got[1].(float64)) {
		t.Errorf("specials = %v", got)
	}
}

func TestCDRUnsupported(t *testing.T) {
	if _, err := EncodeAll(struct{ X int }{}); !errors.Is(err, ErrEncode) {
		t.Errorf("err = %v", err)
	}
}

func TestCDRTruncated(t *testing.T) {
	b, _ := EncodeAll([]float64{1, 2, 3})
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeAll(b[:cut]); !errors.Is(err, ErrDecode) {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
	}
	if _, err := DecodeAll([]byte{200}); !errors.Is(err, ErrDecode) {
		t.Errorf("bad tag err = %v", err)
	}
}

// Property: EncodeAll/DecodeAll is the identity on random primitive tuples.
func TestCDRRoundTripProperty(t *testing.T) {
	f := func(i int32, l int64, d float64, s string, fs []float64) bool {
		b, err := EncodeAll(i, l, d, s, fs)
		if err != nil {
			return false
		}
		got, err := DecodeAll(b)
		if err != nil || len(got) != 5 {
			return false
		}
		if got[0].(int32) != i || got[1].(int64) != l || got[3].(string) != s {
			return false
		}
		gd := got[2].(float64)
		if gd != d && !(math.IsNaN(gd) && math.IsNaN(d)) {
			return false
		}
		gfs := got[4].([]float64)
		if len(gfs) != len(fs) {
			return false
		}
		for k := range fs {
			if gfs[k] != fs[k] && !(math.IsNaN(gfs[k]) && math.IsNaN(fs[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- ORB dispatch tests ---

const calcSIDL = `
package demo {
  interface Calc {
    double add(in double a, in double b);
    double sum(in array<double,1> xs);
    string greet(in string who);
    string echo(in string s);
  }
}
`

type calcImpl struct{}

func (calcImpl) Add(a, b float64) float64 { return a + b }
func (calcImpl) Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
func (calcImpl) Greet(who string) string { return "hello " + who }
func (calcImpl) Echo(s string) string    { return s }

// BindSkeleton provides Babel-style direct bindings so dispatch (and the
// zero-alloc tests that measure it) skips reflect method values.
func (c calcImpl) BindSkeleton(bind func(string, any)) {
	bind("add", c.Add)
	bind("sum", c.Sum)
	bind("greet", c.Greet)
	bind("echo", c.Echo)
}

func calcInfo(t testing.TB) *sreflect.TypeInfo {
	t.Helper()
	f, err := sidl.Parse(calcSIDL)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	infos := sreflect.FromTable(tbl)
	for _, ti := range infos {
		if ti.QName == "demo.Calc" {
			return ti
		}
	}
	t.Fatal("demo.Calc not found")
	return nil
}

func TestInProcessORBInvoke(t *testing.T) {
	o := NewInProcessORB()
	if err := o.OA.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	res, err := o.Invoke("calc", "add", 2.0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 5 {
		t.Errorf("add = %v", res)
	}
	res, err = o.Invoke("calc", "sum", []float64{1, 2, 3, 4})
	if err != nil || res[0].(float64) != 10 {
		t.Errorf("sum = %v, %v", res, err)
	}
	res, err = o.Invoke("calc", "greet", "world")
	if err != nil || res[0].(string) != "hello world" {
		t.Errorf("greet = %v, %v", res, err)
	}
}

func TestInProcessORBErrors(t *testing.T) {
	o := NewInProcessORB()
	if err := o.OA.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Invoke("ghost", "add", 1.0, 2.0); !errors.Is(err, ErrRemote) {
		t.Errorf("no-object err = %v", err)
	}
	if _, err := o.Invoke("calc", "multiply", 1.0, 2.0); !errors.Is(err, ErrRemote) {
		t.Errorf("no-method err = %v", err)
	}
	if _, err := o.Invoke("calc", "add", "x", "y"); !errors.Is(err, ErrRemote) {
		t.Errorf("bad-args err = %v", err)
	}
	o.OA.Unregister("calc")
	if _, err := o.Invoke("calc", "add", 1.0, 2.0); !errors.Is(err, ErrRemote) {
		t.Errorf("post-unregister err = %v", err)
	}
}

func TestRemoteORBOverInproc(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("orb")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()

	c, err := DialClient(tr, "orb")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Invoke("calc", "add", 20.0, 22.0)
	if err != nil || res[0].(float64) != 42 {
		t.Fatalf("remote add = %v, %v", res, err)
	}
	res, err = c.Invoke("calc", "sum", []float64{5, 5})
	if err != nil || res[0].(float64) != 10 {
		t.Fatalf("remote sum = %v, %v", res, err)
	}
	// Remote error propagation.
	if _, err := c.Invoke("calc", "nope"); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "nope") {
		t.Errorf("remote err = %v", err)
	}
}

func TestRemoteORBOverTCP(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()

	c, err := DialClient(transport.TCP{}, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		res, err := c.Invoke("calc", "add", float64(i), 1.0)
		if err != nil || res[0].(float64) != float64(i)+1 {
			t.Fatalf("iter %d: %v, %v", i, res, err)
		}
	}
}

// TestServerStopIdempotent: shutting a server down twice is harmless.
func TestServerStopIdempotent(t *testing.T) {
	oa := NewObjectAdapter()
	tr := &transport.InProc{}
	l, _ := tr.Listen("x")
	srv := Serve(oa, l)
	srv.Close()
	srv.Close()
}

// observer is a servant with a oneway-style void method.
type observer struct {
	mu    sync.Mutex
	steps []int32
}

func (o *observer) Observe(step int32, data []float64) {
	o.mu.Lock()
	o.steps = append(o.steps, step)
	o.mu.Unlock()
}

func (o *observer) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.steps)
}

func observerInfo(t testing.TB) *sreflect.TypeInfo {
	t.Helper()
	f, err := sidl.Parse(`package m { interface Mon { oneway void observe(in int step, in array<double,1> data); } }`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range sreflect.FromTable(tbl) {
		if ti.QName == "m.Mon" {
			return ti
		}
	}
	t.Fatal("m.Mon missing")
	return nil
}

// TestInProcessOneway drives the adapter's oneway dispatch — the path a
// server's read loop takes for correlation ID 0 — without a transport:
// the servant runs, no reply is produced, and errors are swallowed.
func TestInProcessOneway(t *testing.T) {
	oa := NewObjectAdapter()
	obs := &observer{}
	if err := oa.Register("mon", observerInfo(t), obs); err != nil {
		t.Fatal(err)
	}
	oneway := func(key string, args ...any) *Encoder {
		t.Helper()
		req, err := encodeRequest(onewayID, 0, key, "observe", args)
		if err != nil {
			t.Fatal(err)
		}
		defer PutEncoder(req)
		return oa.dispatchBody(req.Bytes()[frameHeader:], true, 0, 0)
	}
	for i := int32(0); i < 3; i++ {
		if rep := oneway("mon", i, []float64{1}); rep != nil {
			t.Fatal("oneway produced a reply")
		}
	}
	if obs.count() != 3 {
		t.Errorf("observed %d", obs.count())
	}
	// Oneway errors (unknown key) are swallowed by design.
	if rep := oneway("ghost", int32(0), []float64{}); rep != nil {
		t.Error("oneway to ghost produced a reply")
	}
}

func TestRemoteOnewayOrderedWithTwoWay(t *testing.T) {
	oa := NewObjectAdapter()
	obs := &observer{}
	if err := oa.Register("mon", observerInfo(t), obs); err != nil {
		t.Fatal(err)
	}
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("oneway")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	c, err := DialClient(tr, "oneway")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fire several oneways, then a two-way; on one connection the two-way
	// reply implies the earlier oneways were dispatched first.
	for i := int32(0); i < 5; i++ {
		if err := c.InvokeOneway("mon", "observe", i, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	if obs.count() != 5 {
		t.Errorf("observed %d before two-way reply, want 5", obs.count())
	}
}

func TestServerStopWithLiveConnections(t *testing.T) {
	// Shutting down must not hang while a client connection is still open.
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("stop-live")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	c, err := DialClient(tr, "stop-live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("calc", "add", 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close() // must return even though c is still open
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a live connection")
	}
	// Subsequent calls fail cleanly.
	if _, err := c.Invoke("calc", "add", 1.0, 1.0); err == nil {
		t.Error("invoke succeeded after server stop")
	}
	c.Close()
}

// withID prefixes a CDR body with a wire-v2 correlation header.
func withID(id uint64, body ...byte) []byte {
	f := make([]byte, frameHeader+len(body))
	binary.LittleEndian.PutUint64(f, id)
	copy(f[frameHeader:], body)
	return f
}

func TestServerSurvivesCorruptFrames(t *testing.T) {
	// Failure injection: garbage bodies behind valid correlation headers
	// must produce error replies (or, for oneway IDs, silence), never a
	// wedged server.
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("fuzz")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()

	conn, err := tr.Dial("fuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frames := [][]byte{
		withID(1),                             // empty body
		withID(2, 0xFF, 0x01, 0x02),           // bad tag
		withID(0, tagBool, 1),                 // oneway ID, garbage body: no reply
		withID(3, tagInt32, 1, 2, 3, 4),       // key is not a string
		withID(4, tagString, 4, 0, 0, 0, 'c'), // truncated key string
		withID(5, tagString, 1, 0, 0, 0, 'x'), // key only, method missing
	}
	for i, f := range frames {
		if err := conn.Send(f); err != nil {
			t.Fatalf("frame %d send: %v", i, err)
		}
	}
	// Every frame with a nonzero ID produces an error reply carrying that
	// ID back; the oneway frame produces none. Replies may arrive in any
	// order (dispatch is concurrent), so collect them all.
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		rep, err := conn.Recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		id, _, body, ok := splitFrame(rep)
		if !ok || id == 0 {
			t.Fatalf("reply %d: bad frame header (id=%d ok=%v)", i, id, ok)
		}
		seen[id] = true
		if _, err := decodeReply(body); !errors.Is(err, ErrRemote) && !errors.Is(err, ErrDecode) {
			t.Errorf("reply id %d: err = %v", id, err)
		}
	}
	for id := uint64(1); id <= 5; id++ {
		if !seen[id] {
			t.Errorf("no reply for correlation ID %d", id)
		}
	}
	// The server still works after the abuse.
	c, err := DialClient(tr, "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Invoke("calc", "add", 2.0, 2.0)
	if err != nil || res[0].(float64) != 4 {
		t.Errorf("post-fuzz invoke: %v, %v", res, err)
	}
}

// TestArgDecodeFailureAnswersAndKeepsServing sends a request whose key
// and method decode but whose argument does not: the caller gets an
// error reply on its own correlation ID, and the same connection goes on
// serving.
func TestArgDecodeFailureAnswersAndKeepsServing(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("badarg")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()
	conn, err := tr.Dial("badarg")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req, err := encodeRequest(7, 0, "calc", "add", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]byte(nil), req.Bytes()...), 0xFF) // unknown tag
	PutEncoder(req)
	if err := conn.Send(bad); err != nil {
		t.Fatal(err)
	}
	rep, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	id, _, body, ok := splitFrame(rep)
	if !ok || id != 7 {
		t.Fatalf("reply header: id=%d ok=%v", id, ok)
	}
	if _, err := decodeReply(body); !errors.Is(err, ErrRemote) {
		t.Fatalf("bad-argument reply err = %v, want ErrRemote", err)
	}
	transport.ReleaseFrame(rep)

	req, err = encodeRequest(8, 0, "calc", "add", []any{1.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	err = conn.Send(req.Bytes())
	PutEncoder(req)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer transport.ReleaseFrame(rep)
	id, _, body, _ = splitFrame(rep)
	out, err := decodeReply(body)
	if id != 8 || err != nil || len(out) != 1 || out[0] != 3.5 {
		t.Fatalf("follow-up add: id=%d out=%v err=%v", id, out, err)
	}
}

// halver returns a float32, which SIDL allows and CDR cannot encode.
type halver struct{}

func (halver) Halve(x float64) float32 { return float32(x / 2) }

// TestUnencodableResultIsRemoteError pins a typed method whose result
// the CDR encoder rejects: the caller gets ErrRemote naming the failure,
// not a truncated reply.
func TestUnencodableResultIsRemoteError(t *testing.T) {
	f, err := sidl.Parse(`package h { interface Halver { float halve(in double x); } }`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	o := NewInProcessORB()
	if err := o.OA.Register("h", sreflect.FromTable(tbl)[0], halver{}); err != nil {
		t.Fatal(err)
	}
	out, err := o.Invoke("h", "halve", 3.0)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "float32") {
		t.Fatalf("halve = %v, %v; want ErrRemote naming float32", out, err)
	}
}

func TestServerDropsHeaderlessConnection(t *testing.T) {
	// A frame too short to carry a correlation header cannot be answered;
	// the server must drop that connection without taking down the rest.
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProc{}
	l, err := tr.Listen("short")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	defer srv.Close()

	conn, err := tr.Dial("short")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("recv after short frame: err = %v, want ErrClosed", err)
	}
	conn.Close()

	c, err := DialClient(tr, "short")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Invoke("calc", "add", 1.0, 1.0); err != nil || res[0].(float64) != 2 {
		t.Errorf("fresh connection after drop: %v, %v", res, err)
	}
}

func TestInternSurvivesGarbageFlood(t *testing.T) {
	// Regression: the intern table used to be a fill-once global map, so a
	// peer sending a few thousand distinct garbage identifiers permanently
	// disabled interning for every legitimate name. The direct-mapped cache
	// evicts on collision instead: after an arbitrary flood, a real name
	// re-interns on first use and subsequent lookups return the cached copy
	// allocation-free.
	for i := 0; i < 3*internSlots; i++ {
		intern([]byte(fmt.Sprintf("garbage.%d", i)))
	}
	name := []byte("esi.Solver.Apply")
	intern(name) // repopulate the slot the flood may have evicted
	if got := testing.AllocsPerRun(100, func() {
		if s := intern(name); s != "esi.Solver.Apply" {
			t.Fatalf("intern returned %q", s)
		}
	}); got != 0 {
		t.Errorf("interned lookup allocates %.1f/op after garbage flood; want 0", got)
	}
	// Oversized identifiers bypass the table entirely but still decode.
	long := bytes.Repeat([]byte("x"), maxInternLen+1)
	if s := intern(long); s != string(long) {
		t.Errorf("oversized intern returned %q", s)
	}
}
