package mpi

// Wire codec tests: round-trip fidelity for the three payload kinds,
// fail-fast on untransferable types, and — because a crashed or hostile
// peer can hand the decoder any bytes — graceful ErrWire on every
// truncation and corruption, never a panic or an absurd allocation.

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func encodeEnvelope(t *testing.T, e envelope) []byte {
	t.Helper()
	b, err := encodeMsg(nil, e)
	if err != nil {
		t.Fatalf("encode %T: %v", e.payload, err)
	}
	return b
}

// wirePayloads covers the three payload kinds, empty and non-empty; the
// round-trip test and the fuzz target's seed corpus share it.
func wirePayloads() []any {
	return []any{
		nil,
		[]float64{},
		[]float64{1.5, -0.0, math.Inf(1), math.SmallestNonzeroFloat64},
		[]float64{0, -1, 1 << 53, -(1 << 53)},
		[]int{},
		[]int{0, -1, math.MaxInt64, math.MinInt64},
	}
}

// msgBody is a kMsg body from source 1 with tag 2 whose value starts with
// type tag typ.
func msgBody(typ byte, data ...byte) []byte {
	return append([]byte{1, 2, typ}, data...)
}

// nestedFrame is a kMsg body of levels nested [9 1] headers around a nil:
// the shape of a deeply nested []any under type tag 9.
func nestedFrame(levels int) []byte {
	b := append([]byte{1, 2}, bytes.Repeat([]byte{9, 1}, levels)...)
	return append(b, tNil)
}

// unassignedTagFrames carry the type tags no payload kind uses — 1 and
// 4–9 — in the shapes a []byte, []complex128, int, float64, string, bool
// or []any value would take under them, plus the counts and the nesting
// that would make a decoder of those shapes allocate or recurse without
// bound. The decoder must stop at the tag: ErrWire, nothing sized.
var unassignedTagFrames = []struct {
	name string
	b    []byte
}{
	{"[]byte", msgBody(1, 4, 1, 2, 3, 0xff)},
	{"[]complex128", msgBody(4, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0xc0)},
	{"int", msgBody(5, 0x7f)},
	{"float64", msgBody(6, 0, 0, 0, 0, 0, 0, 4, 0x40)},
	{"string", msgBody(7, 2, 'h', 'i')},
	{"bool", msgBody(8, 1)},
	{"[]any", msgBody(9, 2, tNil, tF64s, 0)},
	{"huge bytes count", msgBody(1, 0xff, 0xff, 0xff, 0xff, 0x0f)},
	{"huge anys count", msgBody(9, 0xff, 0xff, 0xff, 0xff, 0x0f)},
	// 2⁶³ elements: negative once it is an int.
	{"anys count past MaxInt", msgBody(9, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
	{"65536-level anys nesting", nestedFrame(1 << 16)},
}

func TestWireRoundTrip(t *testing.T) {
	for _, p := range wirePayloads() {
		b := encodeEnvelope(t, envelope{source: 3, tag: internalTagBase + 17, payload: p})
		if b[0] != kMsg {
			t.Fatalf("frame kind = %d", b[0])
		}
		e, err := decodeMsg(b[1:])
		if err != nil {
			t.Errorf("decode %T: %v", p, err)
			continue
		}
		if e.source != 3 || e.tag != internalTagBase+17 {
			t.Errorf("header (%d,%d) after round-trip", e.source, e.tag)
		}
		if !reflect.DeepEqual(e.payload, p) {
			t.Errorf("payload: got %#v (%T), want %#v (%T)", e.payload, e.payload, p, p)
		}
	}
}

func TestWireNaNPreservesBits(t *testing.T) {
	// A signalling NaN's payload bits must survive the codec: values move
	// as IEEE 754 bit patterns, not through any float parse.
	snan := math.Float64frombits(0x7ff0dead_beef0001)
	b := encodeEnvelope(t, envelope{payload: []float64{snan}})
	e, err := decodeMsg(b[1:])
	if err != nil {
		t.Fatal(err)
	}
	got := e.payload.([]float64)[0]
	if math.Float64bits(got) != 0x7ff0dead_beef0001 {
		t.Errorf("NaN bits = %#x", math.Float64bits(got))
	}
}

func TestWireUntransferableTypes(t *testing.T) {
	for _, p := range []any{
		[]byte{1},
		[]complex128{1},
		int(1),
		float64(1),
		"a",
		true,
		[]any{[]float64{1}},
		struct{ X int }{1},
		[]string{"a"},
		map[string]int{"a": 1},
		float32(1),
		int32(1),
		&struct{}{},
	} {
		if _, err := encodeMsg(nil, envelope{payload: p}); !errors.Is(err, ErrPayloadType) {
			t.Errorf("encode %T = %v, want ErrPayloadType", p, err)
		}
	}
}

func TestWireTruncationNeverPanics(t *testing.T) {
	// Every strict prefix of every valid encoding must decode to ErrWire.
	for _, p := range []any{[]float64{1, 2}, []int{-5, 300}} {
		full := encodeEnvelope(t, envelope{source: 1, tag: 2, payload: p})[1:]
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeMsg(full[:cut]); !errors.Is(err, ErrWire) {
				t.Fatalf("%T truncated at %d/%d: err = %v, want ErrWire", p, cut, len(full), err)
			}
		}
	}
}

func TestWireCorruptFrames(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"unknown type tag", msgBody(99)},
		{"trailing bytes", msgBody(tNil, 0xaa)},
		// Length prefix far beyond the frame: must fail the bounds check,
		// not attempt a multi-gigabyte make().
		{"huge f64 count", msgBody(tF64s, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"huge ints count", msgBody(tInts, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"int element truncated", msgBody(tInts, 2, 0x80)},
	}
	for _, tc := range cases {
		if _, err := decodeMsg(tc.b); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, err)
		}
	}
	for _, tc := range unassignedTagFrames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeMsg(tc.b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), "unknown type tag") {
			t.Errorf("%s: err = %v, want ErrWire for an unknown type tag", tc.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, n)
		}
	}
}

// FuzzDecodeMsg: a crashed or hostile peer can hand decodeMsg any bytes. It
// must fail with ErrWire or decode — never panic — and whatever decodes is
// inside the codec's value domain: it re-encodes, and decoding that
// encoding gives the same value back (compared as canonical bytes, so NaN
// payloads and non-minimal varints in the input don't matter).
func FuzzDecodeMsg(f *testing.F) {
	for _, p := range wirePayloads() {
		b, err := encodeMsg(nil, envelope{source: 3, tag: internalTagBase + 17, payload: p})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[1:])
		f.Add(b[1 : len(b)-len(b)/3])
	}
	for _, tc := range unassignedTagFrames {
		f.Add(tc.b)
		f.Add(tc.b[:len(tc.b)-len(tc.b)/3])
	}
	f.Add(msgBody(99))
	f.Add(msgBody(tNil, 0xaa))
	f.Add(msgBody(tF64s, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(msgBody(tInts, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(msgBody(tInts, 2, 0x80))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeMsg(b)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("non-ErrWire failure: %v", err)
			}
			return
		}
		canon, err := encodeMsg(nil, e)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", e.payload, err)
		}
		e2, err := decodeMsg(canon[1:])
		if err != nil {
			t.Fatalf("canonical encoding of %#v does not decode: %v", e.payload, err)
		}
		again, err := encodeMsg(nil, e2)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("decode∘encode is not the identity: %#v became %#v (%v)", e, e2, err)
		}
	})
}

// FuzzRendezvousFrames: the rendezvous service parses whatever a dialer
// sends as a join, and a joining rank parses whatever the service sends as
// a world. Each body is fed to both parsers: a parse fails with ErrWire or
// succeeds, never panics or sizes anything past the input, and whatever
// parses re-encodes to a frame that parses back to the same values.
func FuzzRendezvousFrames(f *testing.F) {
	f.Add(appendJoin(3, 4, "tcp://127.0.0.1:7077")[1:])
	f.Add(appendJoin(0, 1, "")[1:])
	f.Add(appendWorld(2, []string{"shm:///tmp/a", "shm:///tmp/b", "inproc://c"})[1:])
	f.Add(appendWorld(1<<40, nil)[1:])
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0})                         // world naming 4G addresses
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}) // overlong varint
	f.Add(append(appendJoin(1, 2, "x")[1:], 0))                               // trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		if rank, size, addr, err := parseJoin(b); err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("join: non-ErrWire failure: %v", err)
			}
		} else {
			r2, s2, a2, err := parseJoin(appendJoin(rank, size, addr)[1:])
			if err != nil || r2 != rank || s2 != size || a2 != addr {
				t.Fatalf("join (%d, %d, %q) re-parsed as (%d, %d, %q), %v", rank, size, addr, r2, s2, a2, err)
			}
		}
		if gen, addrs, err := parseWorld(b); err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("world: non-ErrWire failure: %v", err)
			}
		} else {
			if len(addrs) > len(b) {
				t.Fatalf("world: %d addresses from %d bytes", len(addrs), len(b))
			}
			g2, a2, err := parseWorld(appendWorld(gen, addrs)[1:])
			if err != nil || g2 != gen || !slices.Equal(a2, addrs) {
				t.Fatalf("world (%d, %q) re-parsed as (%d, %q), %v", gen, addrs, g2, a2, err)
			}
		}
	})
}

func TestWireHelloAndRendezvousKindsDisjoint(t *testing.T) {
	// Mesh frame kinds and rendezvous frame kinds must never overlap: a
	// crossed wire (a rank dialing the rendezvous port, or vice versa)
	// has to fail parsing instead of being misinterpreted.
	mesh := []byte{kHello, kMsg, kBye}
	rv := []byte{rvJoin, rvWorld, rvReady, rvGo, rvCtxReq, rvCtxRep, rvBye, rvErr}
	for _, m := range mesh {
		for _, r := range rv {
			if m == r {
				t.Fatalf("frame kind %d used by both mesh and rendezvous", m)
			}
		}
	}
}
