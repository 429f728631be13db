package orb

// Tests for hand-written Handler servants and the raw (undecoded)
// invocation path that the distributed collective port streams bulk chunks
// through.

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/transport"
)

// registerScaler registers a Handler under key that answers:
//
//	scale(factor float64, n int32) -> []float64 of n elements i·factor;
//	fail(msg string) -> error after encoding a partial result;
//	note(v int32) oneway -> recorded on ch.
func registerScaler(oa *ObjectAdapter, key string, ch chan int32) {
	oa.Handle(key, func(method string, args []any, reply *Encoder) error {
		switch method {
		case "scale":
			f := args[0].(float64)
			n := int(args[1].(int32))
			out := make([]float64, n)
			for i := range out {
				out[i] = f * float64(i)
			}
			return reply.Encode(out)
		case "fail":
			reply.Encode(int32(42)) //nolint:errcheck // partial result, must be discarded
			return errors.New(args[0].(string))
		case "note":
			if reply != nil {
				return errors.New("oneway got a reply encoder")
			}
			ch <- args[0].(int32)
			return nil
		default:
			return errors.New("no such method: " + method)
		}
	})
}

func dynServer(t *testing.T, tr transport.Transport, addr string) (*Server, chan int32) {
	t.Helper()
	oa := NewObjectAdapter()
	ch := make(chan int32, 8)
	registerScaler(oa, "dyn", ch)
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	return Serve(oa, l), ch
}

func TestDynamicServantInvoke(t *testing.T) {
	tr := &transport.InProc{}
	srv, _ := dynServer(t, tr, "dyn-basic")
	defer srv.Close()
	c, err := DialClient(tr, "dyn-basic")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Invoke("dyn", "scale", 2.5, int32(4))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res[0].([]float64)
	if !ok || len(got) != 4 {
		t.Fatalf("scale returned %#v", res)
	}
	for i, v := range got {
		if v != 2.5*float64(i) {
			t.Errorf("elem %d = %v", i, v)
		}
	}
}

func TestDynamicServantError(t *testing.T) {
	tr := &transport.InProc{}
	srv, _ := dynServer(t, tr, "dyn-err")
	defer srv.Close()
	c, err := DialClient(tr, "dyn-err")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Handler error must surface as ErrRemote carrying the message, and the
	// partially encoded result must not leak into the reply.
	res, err := c.Invoke("dyn", "fail", "boom")
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want remote boom", err)
	}
	if res != nil {
		t.Errorf("partial results leaked: %#v", res)
	}
	if _, err := c.Invoke("dyn", "nope"); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown method err = %v", err)
	}
	// The connection stays usable after a servant error.
	if _, err := c.Invoke("dyn", "scale", 1.0, int32(1)); err != nil {
		t.Fatalf("call after error: %v", err)
	}
}

func TestDynamicServantOneway(t *testing.T) {
	tr := &transport.InProc{}
	srv, ch := dynServer(t, tr, "dyn-oneway")
	defer srv.Close()
	c, err := DialClient(tr, "dyn-oneway")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InvokeOneway("dyn", "note", int32(7)); err != nil {
		t.Fatal(err)
	}
	if got := <-ch; got != 7 {
		t.Errorf("oneway delivered %d", got)
	}
}

func TestRawFloat64sRoundTrip(t *testing.T) {
	var e Encoder
	e.Encode("hdr") //nolint:errcheck
	want := []float64{1.5, -2.25, math.Inf(1)}
	e.Encode(want)     //nolint:errcheck
	e.Encode(int32(9)) //nolint:errcheck

	d := NewDecoder(e.Bytes())
	if s, err := d.DecodeString(); err != nil || s != "hdr" {
		t.Fatalf("header = %q, %v", s, err)
	}
	raw, err := d.RawFloat64s()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 24 {
		t.Fatalf("raw len = %d", len(raw))
	}
	for i, v := range want {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); got != v {
			t.Errorf("elem %d = %v, want %v", i, got, v)
		}
	}
	// The decoder must have advanced past the slice: the trailing int32 is
	// next.
	if v, err := d.Decode(); err != nil || v.(int32) != 9 {
		t.Errorf("trailer = %v, %v", v, err)
	}
	// RawFloat64s on a non-slice value is a decode error.
	d2 := NewDecoder(e.Bytes())
	if _, err := d2.RawFloat64s(); !errors.Is(err, ErrDecode) {
		t.Errorf("RawFloat64s on string = %v", err)
	}
}

func TestInvokeRaw(t *testing.T) {
	tr := &transport.InProc{}
	srv, _ := dynServer(t, tr, "dyn-raw")
	defer srv.Close()
	c, err := DialClient(tr, "dyn-raw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := c.InvokeRawContext(context.Background(), "dyn", "scale", 3.0, int32(5))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := NewDecoder(rep.Results).RawFloat64s()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 40 {
		t.Fatalf("raw len = %d", len(raw))
	}
	for i := 0; i < 5; i++ {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); got != 3*float64(i) {
			t.Errorf("elem %d = %v", i, got)
		}
	}
	rep.Release()
	rep.Release() // double-release must be safe on the zero frame

	// Remote errors surface identically to the decoded path.
	if _, err := c.InvokeRawContext(context.Background(), "dyn", "fail", "raw-boom"); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "raw-boom") {
		t.Fatalf("raw err = %v", err)
	}
	var zero RawReply
	zero.Release() // no-op
}

func TestSupervisedInvokeRawRetriesAfterSever(t *testing.T) {
	inner := &transport.InProc{}
	tr := transport.NewFaulty(inner, transport.Faults{Seed: 11})
	srv, _ := dynServer(t, tr, "dyn-sup")
	defer srv.Close()
	opts, states := fastOpts()
	s, err := DialSupervised(tr, "dyn-sup", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := t.Context()
	rep, err := s.InvokeRawContext(ctx, "dyn", "scale", 1.0, int32(2))
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()

	tr.SeverAll()
	waitState(t, states, StateDegraded)
	// The idempotent raw call rides out the reconnect transparently.
	rep, err = s.InvokeRawContext(ctx, "dyn", "scale", 2.0, int32(3))
	if err != nil {
		t.Fatalf("post-sever raw call: %v", err)
	}
	defer rep.Release()
	raw, err := NewDecoder(rep.Results).RawFloat64s()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 24 {
		t.Fatalf("raw len = %d", len(raw))
	}
	waitState(t, states, StateHealthy)
}
