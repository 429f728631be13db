// Package orb implements the reproduction's CORBA-style object request
// broker baseline. The paper's §3.3 argues that CORBA "is far too
// inefficient when a method call is made within the same address space"
// because every request — local or remote — passes through marshaling and
// an object adapter. This package reproduces that cost structure:
//
//   - cdr.go: a CDR-flavoured value codec (common data representation);
//   - orb.go: an object adapter that dispatches marshaled requests to
//     registered servants via SIDL dynamic invocation, and an in-process
//     ORB whose Invoke marshals every call (experiment E2's baseline);
//   - client.go, server.go, supervisor.go: the remote ORB over
//     repro/internal/transport — a multiplexed client, an
//     admission-controlled server, and the self-healing supervised client.
package orb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sidl/arena"
	"repro/internal/simd"
	"repro/internal/transport"
)

// Codec errors.
var (
	ErrEncode = errors.New("orb: cannot encode value")
	ErrDecode = errors.New("orb: malformed CDR stream")
)

// CDR type tags.
const (
	tagNil byte = iota
	tagBool
	tagInt32
	tagInt64
	tagFloat64
	tagComplex128
	tagString
	tagBytes
	tagFloat64Slice
	tagInt32Slice
	tagStringSlice
	tagInt // host int, encoded as int64
)

// Encoder serializes values in the ORB's common data representation.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
	// shared is a reference-counted payload logically appended after buf
	// (see AppendSharedFloat64s). The encoder owns one reference until
	// Bytes flattens it, takeShared transfers it, or Reset/PutEncoder
	// drop it.
	shared *transport.SharedBuf
}

// Bytes returns the encoded stream. A pending shared payload is
// flattened (copied to the tail of the buffer) so the result is always
// the complete frame; senders that can splice the payload zero-copy use
// takeShared instead, before calling Bytes.
func (e *Encoder) Bytes() []byte {
	if e.shared != nil {
		e.buf = append(e.buf, e.shared.Bytes()...)
		e.shared.Release()
		e.shared = nil
	}
	return e.buf
}

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.dropShared()
}

// AppendSharedFloat64s encodes a float64-slice value whose element bytes
// live in p (little-endian float64 bits; p.Len() must be a multiple of
// 8). The encoder takes its own reference on p — the caller keeps and
// releases its own — and the payload is logically the final bytes of the
// stream: this must be the last value encoded. Fan-out servers splice
// the same p into many replies without copying; every other consumer of
// the encoder sees identical bytes via the Bytes flatten path.
func (e *Encoder) AppendSharedFloat64s(p *transport.SharedBuf) error {
	if e.shared != nil {
		return fmt.Errorf("%w: shared payload already attached", ErrEncode)
	}
	if p.Len()%8 != 0 {
		return fmt.Errorf("%w: shared float64 payload of %d bytes", ErrEncode, p.Len())
	}
	e.buf = append(e.buf, tagFloat64Slice)
	e.u32(uint32(p.Len() / 8))
	p.Retain()
	e.shared = p
	return nil
}

// takeShared transfers the pending shared payload (and its reference) to
// the caller; after it returns non-nil, e.Bytes() is the frame prefix to
// send ahead of the payload.
func (e *Encoder) takeShared() *transport.SharedBuf {
	s := e.shared
	e.shared = nil
	return s
}

// dropShared releases a pending shared payload, for discard paths (error
// replies, pooling) that never send the frame.
func (e *Encoder) dropShared() {
	if e.shared != nil {
		e.shared.Release()
		e.shared = nil
	}
}

// maxPooledBuf caps the capacity of buffers kept in the encoder pool so one
// giant array transfer cannot pin memory for the rest of the run.
const maxPooledBuf = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a reset Encoder from the package pool. Pair with
// PutEncoder once the encoded bytes have been fully consumed (sent or
// copied) — the marshaling hot path then runs allocation-free at steady
// state.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns e to the pool. The caller must not touch e or any
// slice obtained from e.Bytes() afterwards. A shared payload still
// attached (a reply discarded before sending) is released here.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	e.dropShared()
	if cap(e.buf) > maxPooledBuf {
		return
	}
	encoderPool.Put(e)
}

// grow extends the buffer by n bytes and returns the new tail.
func (e *Encoder) grow(n int) []byte {
	l := len(e.buf)
	if cap(e.buf)-l < n {
		nb := make([]byte, l, 2*cap(e.buf)+n)
		copy(nb, e.buf)
		e.buf = nb
	}
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

func (e *Encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.grow(4), v)
}

func (e *Encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.grow(8), v)
}

// EncodeString appends a string.
func (e *Encoder) EncodeString(s string) {
	e.buf = append(e.buf, tagString)
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Encode appends one tagged value. Supported types are SIDL's primitives
// and the rank-1 array mappings.
func (e *Encoder) Encode(v any) error {
	switch x := v.(type) {
	case nil:
		e.buf = append(e.buf, tagNil)
	case bool:
		e.buf = append(e.buf, tagBool)
		if x {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	case int32:
		e.buf = append(e.buf, tagInt32)
		e.u32(uint32(x))
	case int64:
		e.buf = append(e.buf, tagInt64)
		e.u64(uint64(x))
	case int:
		e.buf = append(e.buf, tagInt)
		e.u64(uint64(int64(x)))
	case float64:
		e.buf = append(e.buf, tagFloat64)
		e.u64(math.Float64bits(x))
	case complex128:
		e.buf = append(e.buf, tagComplex128)
		e.u64(math.Float64bits(real(x)))
		e.u64(math.Float64bits(imag(x)))
	case string:
		e.EncodeString(x)
	case []byte:
		e.buf = append(e.buf, tagBytes)
		e.u32(uint32(len(x)))
		e.buf = append(e.buf, x...)
	case []float64:
		e.buf = append(e.buf, tagFloat64Slice)
		e.u32(uint32(len(x)))
		simd.PackF64LE(e.grow(8*len(x)), x) // single grow, vectorized stores
	case []int32:
		e.buf = append(e.buf, tagInt32Slice)
		e.u32(uint32(len(x)))
		b := e.grow(4 * len(x))
		for i, n := range x {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(n))
		}
	case []string:
		e.buf = append(e.buf, tagStringSlice)
		e.u32(uint32(len(x)))
		for _, s := range x {
			e.EncodeString(s)
		}
	default:
		return fmt.Errorf("%w: %T", ErrEncode, v)
	}
	return nil
}

// ResultFloat64 implements sreflect.ResultSink: dynamic-invocation
// results marshal straight into the reply stream, no boxing, no []any.
func (e *Encoder) ResultFloat64(v float64) {
	e.buf = append(e.buf, tagFloat64)
	e.u64(math.Float64bits(v))
}

// ResultInt32 implements sreflect.ResultSink.
func (e *Encoder) ResultInt32(v int32) {
	e.buf = append(e.buf, tagInt32)
	e.u32(uint32(v))
}

// ResultString implements sreflect.ResultSink.
func (e *Encoder) ResultString(s string) { e.EncodeString(s) }

// Decoder reads values back from a CDR stream.
type Decoder struct {
	buf   []byte
	off   int
	arena *arena.Arena
}

// NewDecoder wraps an encoded stream.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// setArena attaches an arena; the object adapter's dispatch is its one
// caller. While attached, every value Decode returns — slices, strings,
// and the interface boxes holding scalars — lives in arena storage and is
// valid only until the arena's next Reset; in exchange, steady-state
// decoding allocates nothing. Callers that retain decoded values must use
// a plain decoder.
func (d *Decoder) setArena(a *arena.Arena) { d.arena = a }

// f64s returns an m-element result slice: arena-backed when an arena is
// attached, freshly allocated otherwise.
func (d *Decoder) f64s(m int) []float64 {
	if d.arena != nil {
		return d.arena.Float64s(m)
	}
	return make([]float64, m)
}

// Boxing helpers: with an arena attached the interface conversion itself
// is allocation-free; without one these are ordinary conversions.

func (d *Decoder) anyOf(s []float64) any {
	if d.arena != nil {
		return d.arena.AnyFloat64Slice(s)
	}
	return s
}

func (d *Decoder) anyFloat64(v float64) any {
	if d.arena != nil {
		return d.arena.AnyFloat64(v)
	}
	return v
}

func (d *Decoder) anyInt32(v int32) any {
	if d.arena != nil {
		return d.arena.AnyInt32(v)
	}
	return v
}

func (d *Decoder) anyInt64(v int64) any {
	if d.arena != nil {
		return d.arena.AnyInt64(v)
	}
	return v
}

func (d *Decoder) anyInt(v int) any {
	if d.arena != nil {
		return d.arena.AnyInt(v)
	}
	return v
}

func (d *Decoder) anyStringBytes(b []byte) any {
	if d.arena != nil {
		return d.arena.AnyString(b)
	}
	return string(b)
}

// More reports whether undecoded bytes remain.
func (d *Decoder) More() bool { return d.off < len(d.buf) }

func (d *Decoder) take(n int) ([]byte, error) {
	if d.off+n > len(d.buf) {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrDecode, n, d.off, len(d.buf))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *Decoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *Decoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// elems validates a decoded element count against the bytes actually
// remaining, so a corrupt length prefix (e.g. 0xFFFFFFFF) fails fast with
// ErrDecode instead of forcing a multi-gigabyte allocation.
func (d *Decoder) elems(n uint32, size int) (int, error) {
	if int64(n)*int64(size) > int64(len(d.buf)-d.off) {
		return 0, fmt.Errorf("%w: %d elements of %dB exceed %d remaining bytes",
			ErrDecode, n, size, len(d.buf)-d.off)
	}
	return int(n), nil
}

// Interning for the request envelope's identifier strings (object keys and
// method names): every dispatched request re-decodes the same few names, so
// handing back one canonical copy removes two allocations per call. The
// table is a fixed-size direct-mapped cache of lock-free slots: a colliding
// name overwrites its slot, so remote-supplied garbage identifiers can only
// evict legitimate names transiently — they re-intern on their next use —
// and can never disable interning for the rest of the process.
const (
	maxInternLen = 64
	internSlots  = 4096 // power of two, ~hundreds of identifiers in practice
)

var internTab [internSlots]atomic.Pointer[string]

// internHash is FNV-1a; identifiers are short, so inlining the loop beats
// hash/fnv's interface plumbing.
func internHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

func intern(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	slot := &internTab[internHash(b)&(internSlots-1)]
	if p := slot.Load(); p != nil && *p == string(b) { // comparison does not copy
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// decodeStringInterned reads a string value and returns its interned copy;
// the dispatch path uses it for keys and method names.
func (d *Decoder) decodeStringInterned() (string, error) {
	tb, err := d.take(1)
	if err != nil {
		return "", err
	}
	if tb[0] != tagString {
		d.off-- // re-read through the generic path for the type error
		return d.DecodeString()
	}
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return intern(b), nil
}

// DecodeString reads a string value (tag must be string).
func (d *Decoder) DecodeString() (string, error) {
	v, err := d.Decode()
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("%w: expected string, got %T", ErrDecode, v)
	}
	return s, nil
}

// RawFloat64s reads a float64-slice value and returns its undecoded
// payload: 8 little-endian bytes per element, aliasing the decoder's
// buffer (valid only while the backing frame is held). Bulk consumers
// scatter straight from this view into their destination storage, merging
// the decode copy and the unpack copy into one pass.
func (d *Decoder) RawFloat64s() ([]byte, error) {
	tb, err := d.take(1)
	if err != nil {
		return nil, err
	}
	if tb[0] != tagFloat64Slice {
		return nil, fmt.Errorf("%w: expected float64 slice, got tag %d", ErrDecode, tb[0])
	}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	m, err := d.elems(n, 8)
	if err != nil {
		return nil, err
	}
	return d.take(8 * m)
}

// Decode reads the next tagged value.
func (d *Decoder) Decode() (any, error) {
	tb, err := d.take(1)
	if err != nil {
		return nil, err
	}
	switch tb[0] {
	case tagNil:
		return nil, nil
	case tagBool:
		b, err := d.take(1)
		if err != nil {
			return nil, err
		}
		return b[0] != 0, nil
	case tagInt32:
		v, err := d.u32()
		if err != nil {
			return nil, err
		}
		return d.anyInt32(int32(v)), nil
	case tagInt64:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return d.anyInt64(int64(v)), nil
	case tagInt:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return d.anyInt(int(int64(v))), nil
	case tagFloat64:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return d.anyFloat64(math.Float64frombits(v)), nil
	case tagComplex128:
		re, err := d.u64()
		if err != nil {
			return nil, err
		}
		im, err := d.u64()
		if err != nil {
			return nil, err
		}
		return complex(math.Float64frombits(re), math.Float64frombits(im)), nil
	case tagString:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		return d.anyStringBytes(b), nil
	case tagBytes:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		if d.arena != nil {
			return d.arena.AnyBytes(b), nil
		}
		return append([]byte(nil), b...), nil
	case tagFloat64Slice:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		m, err := d.elems(n, 8)
		if err != nil {
			return nil, err
		}
		b, err := d.take(8 * m)
		if err != nil {
			return nil, err
		}
		out := d.f64s(m)
		simd.UnpackF64LE(out, b)
		return d.anyOf(out), nil
	case tagInt32Slice:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		m, err := d.elems(n, 4)
		if err != nil {
			return nil, err
		}
		b, err := d.take(4 * m)
		if err != nil {
			return nil, err
		}
		var out []int32
		if d.arena != nil {
			out = d.arena.Int32s(m)
		} else {
			out = make([]int32, m)
		}
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		if d.arena != nil {
			return d.arena.AnyInt32Slice(out), nil
		}
		return out, nil
	case tagStringSlice:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		// The shortest string element is 5 bytes (tag + length prefix).
		m, err := d.elems(n, 5)
		if err != nil {
			return nil, err
		}
		out := make([]string, m)
		for i := range out {
			s, err := d.DecodeString()
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrDecode, tb[0])
	}
}

// EncodeAll encodes a value list into a fresh buffer.
func EncodeAll(vals ...any) ([]byte, error) {
	var e Encoder
	for _, v := range vals {
		if err := e.Encode(v); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// DecodeAll decodes every value in the stream.
func DecodeAll(b []byte) ([]any, error) {
	d := NewDecoder(b)
	var out []any
	for d.More() {
		v, err := d.Decode()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
