package mpi

// Wire codec tests: round-trip fidelity for the one payload kind and —
// because a crashed or hostile peer can hand the decoder any bytes —
// graceful ErrWire on every truncation and corruption, never a panic or an
// absurd allocation.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// wirePayloads covers empty, short, special-valued and multi-byte-count
// payloads; the round-trip test and the fuzz target's seed corpus share it.
func wirePayloads() [][]float64 {
	long := make([]float64, 300) // a two-byte count
	for i := range long {
		long[i] = float64(i) / 7
	}
	return [][]float64{
		nil,
		{},
		{1.5, math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64},
		{0, -1, 1 << 53, -(1 << 53)},
		{math.NaN(), math.Float64frombits(0x7ff0dead_beef0001), math.Inf(-1)},
		long,
	}
}

// msgBody is a kMsg body from source 1 with tag 2 whose value bytes — the
// count and the elements — are data.
func msgBody(data ...byte) []byte {
	return append([]byte{1, 2}, data...)
}

// corruptFrames are kMsg bodies the decoder must refuse with ErrWire
// without sizing anything from the count it read.
var corruptFrames = []struct {
	name string
	b    []byte
}{
	{"empty", nil},
	{"truncated source", []byte{0x80}},
	{"missing count", msgBody()},
	// Length prefixes far beyond the frame: must fail the bounds check,
	// not attempt a multi-gigabyte make().
	{"huge count", msgBody(0xff, 0xff, 0xff, 0xff, 0x0f)},
	// 2⁶³ elements: negative once it is an int.
	{"count past MaxInt", msgBody(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
	{"overlong count varint", msgBody(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
	{"count one past the frame", msgBody(2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)},
	{"trailing bytes", msgBody(0, 0xaa)},
	{"trailing partial element", msgBody(1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x01)},
}

func TestWireRoundTrip(t *testing.T) {
	for _, p := range wirePayloads() {
		b := encodeMsg(nil, envelope{source: 3, tag: internalTagBase + 17, payload: p})
		if b[0] != kMsg {
			t.Fatalf("frame kind = %d", b[0])
		}
		e, err := decodeMsg(b[1:])
		if err != nil {
			t.Errorf("decode %d values: %v", len(p), err)
			continue
		}
		if e.source != 3 || e.tag != internalTagBase+17 {
			t.Errorf("header (%d,%d) after round-trip", e.source, e.tag)
		}
		if e.payload == nil || !bitsEqual(e.payload, p) {
			t.Errorf("payload: got %#v, want %#v", e.payload, p)
		}
	}
}

func TestWireNaNPreservesBits(t *testing.T) {
	// A signalling NaN's payload bits must survive the codec: values move
	// as IEEE 754 bit patterns, not through any float parse.
	snan := math.Float64frombits(0x7ff0dead_beef0001)
	b := encodeMsg(nil, envelope{payload: []float64{snan}})
	e, err := decodeMsg(b[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got := e.payload[0]; math.Float64bits(got) != 0x7ff0dead_beef0001 {
		t.Errorf("NaN bits = %#x", math.Float64bits(got))
	}
}

func TestWireTruncationNeverPanics(t *testing.T) {
	// Every strict prefix of every valid encoding must decode to ErrWire.
	for _, p := range wirePayloads() {
		full := encodeMsg(nil, envelope{source: 1, tag: 2, payload: p})[1:]
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeMsg(full[:cut]); !errors.Is(err, ErrWire) {
				t.Fatalf("%d values truncated at %d/%d: err = %v, want ErrWire", len(p), cut, len(full), err)
			}
		}
	}
}

func TestWireCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeMsg(tc.b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, err)
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
		b := encodeMsg(nil, envelope{source: 3, tag: internalTagBase + 17, payload: p})[1:]
		f.Add(b)
		f.Add(b[:len(b)-len(b)/3])
		f.Add(append(slices.Clone(b), 0))
		// The same value under a count one too high.
		hdr := binary.AppendUvarint(binary.AppendUvarint(nil, 3), internalTagBase+17)
		_, n := binary.Uvarint(b[len(hdr):])
		f.Add(append(binary.AppendUvarint(hdr, uint64(len(p)+1)), b[len(hdr)+n:]...))
	}
	for _, tc := range corruptFrames {
		f.Add(tc.b)
		f.Add(tc.b[:len(tc.b)-len(tc.b)/3])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeMsg(b)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("non-ErrWire failure: %v", err)
			}
			return
		}
		canon := encodeMsg(nil, e)
		e2, err := decodeMsg(canon[1:])
		if err != nil {
			t.Fatalf("canonical encoding of %#v does not decode: %v", e.payload, err)
		}
		if again := encodeMsg(nil, e2); !bytes.Equal(again, canon) {
			t.Fatalf("decode∘encode is not the identity: %#v became %#v", e, e2)
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
