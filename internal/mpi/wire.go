package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/simd"
)

// Wire format of the process backend.
//
// Every frame travels over a transport.Conn (the transport owns framing,
// ordering, and delivery-whole semantics) and starts with a one-byte kind:
//
//	frame    := [u8 kind] body
//	hello    := kHello [uvarint rank] [uvarint gen]       dialer's first frame on a mesh conn
//	msg      := kMsg   [uvarint source] [uvarint efftag] value
//	bye      := kBye                                      finalize handshake (graceful close)
//
// The value encoding is a small closed type-tagged set — exactly the
// payload kinds the package's own collectives and the repo's SPMD
// components exchange. []float64 bodies are packed little-endian through
// the SIMD kernels, so the ubiquitous vector payload moves at memcpy
// speed. Unknown Go types fail fast with ErrPayloadType rather than
// falling back to reflection: a payload that silently worked in-process
// but not across processes is precisely the kind of divergence the
// conformance suite exists to rule out.
//
//	value   := [u8 type] data
//	tNil    — no data
//	tBytes  [uvarint n] n bytes
//	tF64s   [uvarint n] n×8 bytes LE (IEEE 754 bits)
//	tInts   [uvarint n] n varints (zigzag)
//	tC128s  [uvarint n] n×16 bytes LE (re, im)
//	tInt    varint
//	tF64    8 bytes LE
//	tString [uvarint n] n bytes
//	tBool   1 byte
//	tAnys   [uvarint n] n values (recursive; nesting for Allgather parts)
//
// tAnys nests at most maxAnysDepth deep, on both sides: the decoder
// recurses once per level, so without the cap one frame of repeated
// [tAnys 1] pairs could exhaust the receiver's stack.
const (
	kHello byte = 1
	kMsg   byte = 2
	kBye   byte = 3
)

const (
	tNil byte = iota
	tBytes
	tF64s
	tInts
	tC128s
	tInt
	tF64
	tString
	tBool
	tAnys
)

const maxAnysDepth = 64

// ErrPayloadType reports a payload whose Go type the process backend
// cannot serialize. The goroutine backend moves such payloads by
// reference; code meant to run on either backend must stick to the wire
// set (nil, []byte, []float64, []int, []complex128, int, float64, string,
// bool, and []any of these).
var ErrPayloadType = errors.New("mpi: payload type not transferable across processes")

// ErrWire reports a corrupt or truncated process-backend frame.
var ErrWire = errors.New("mpi: malformed wire frame")

// wireBufs recycles encode buffers across sends.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendUvarint / appendVarint are binary.AppendUvarint/AppendVarint —
// named locally to keep call sites short.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

// encodeMsg appends a kMsg frame for e to b and returns it.
func encodeMsg(b []byte, e envelope) ([]byte, error) {
	b = append(b, kMsg)
	b = appendUvarint(b, uint64(e.source))
	b = appendUvarint(b, uint64(e.tag))
	return appendValue(b, e.payload, 0)
}

// appendValue encodes p, which sits inside depth enclosing []any values.
func appendValue(b []byte, p any, depth int) ([]byte, error) {
	switch v := p.(type) {
	case nil:
		return append(b, tNil), nil
	case []byte:
		b = append(b, tBytes)
		b = appendUvarint(b, uint64(len(v)))
		return append(b, v...), nil
	case []float64:
		b = append(b, tF64s)
		b = appendUvarint(b, uint64(len(v)))
		off := len(b)
		// Extend by reslicing, not append(b, make(…)...): that form clears
		// the bytes PackF64LE overwrites at once, and a pooled buffer
		// usually has the room already.
		b = slices.Grow(b, 8*len(v))[:off+8*len(v)]
		simd.PackF64LE(b[off:], v)
		return b, nil
	case []int:
		b = append(b, tInts)
		b = appendUvarint(b, uint64(len(v)))
		for _, x := range v {
			b = appendVarint(b, int64(x))
		}
		return b, nil
	case []complex128:
		b = append(b, tC128s)
		b = appendUvarint(b, uint64(len(v)))
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(x)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(x)))
		}
		return b, nil
	case int:
		b = append(b, tInt)
		return appendVarint(b, int64(v)), nil
	case float64:
		b = append(b, tF64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)), nil
	case string:
		b = append(b, tString)
		b = appendUvarint(b, uint64(len(v)))
		return append(b, v...), nil
	case bool:
		b = append(b, tBool)
		if v {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case []any:
		if depth >= maxAnysDepth {
			return nil, fmt.Errorf("%w: []any nested deeper than %d", ErrPayloadType, maxAnysDepth)
		}
		b = append(b, tAnys)
		b = appendUvarint(b, uint64(len(v)))
		var err error
		for _, x := range v {
			if b, err = appendValue(b, x, depth+1); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrPayloadType, p)
	}
}

// decodeMsg parses a kMsg frame body (after the kind byte) into an
// envelope. The returned payload owns fresh storage: the frame buffer may
// be released immediately after return.
func decodeMsg(b []byte) (envelope, error) {
	src, n := binary.Uvarint(b)
	if n <= 0 {
		return envelope{}, fmt.Errorf("%w: truncated source", ErrWire)
	}
	b = b[n:]
	tag, n := binary.Uvarint(b)
	if n <= 0 {
		return envelope{}, fmt.Errorf("%w: truncated tag", ErrWire)
	}
	b = b[n:]
	p, rest, err := decodeValue(b, 0)
	if err != nil {
		return envelope{}, err
	}
	if len(rest) != 0 {
		return envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(rest))
	}
	return envelope{source: int(src), tag: int(tag), payload: p}, nil
}

// decodeCount reads a length prefix and validates it against the bytes
// actually present at elemSize (≥ 1) bytes per element, so a corrupt count
// fails with ErrWire instead of a huge — or, past MaxInt, negative — make().
func decodeCount(b []byte, elemSize int) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated count", ErrWire)
	}
	b = b[n:]
	if v > uint64(len(b)/elemSize) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds frame", ErrWire, v)
	}
	return int(v), b, nil
}

// decodeValue decodes one value sitting inside depth enclosing tAnys.
func decodeValue(b []byte, depth int) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: missing type tag", ErrWire)
	}
	t, b := b[0], b[1:]
	switch t {
	case tNil:
		return nil, b, nil
	case tBytes:
		n, b, err := decodeCount(b, 1)
		if err != nil {
			return nil, nil, err
		}
		out := make([]byte, n)
		copy(out, b[:n])
		return out, b[n:], nil
	case tF64s:
		n, b, err := decodeCount(b, 8)
		if err != nil {
			return nil, nil, err
		}
		out := make([]float64, n)
		simd.UnpackF64LE(out, b[:8*n])
		return out, b[8*n:], nil
	case tInts:
		n, b, err := decodeCount(b, 1) // ≥1 byte per varint
		if err != nil {
			return nil, nil, err
		}
		out := make([]int, n)
		for i := range out {
			v, m := binary.Varint(b)
			if m <= 0 {
				return nil, nil, fmt.Errorf("%w: truncated int element", ErrWire)
			}
			out[i] = int(v)
			b = b[m:]
		}
		return out, b, nil
	case tC128s:
		n, b, err := decodeCount(b, 16)
		if err != nil {
			return nil, nil, err
		}
		out := make([]complex128, n)
		for i := range out {
			re := math.Float64frombits(binary.LittleEndian.Uint64(b))
			im := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			out[i] = complex(re, im)
			b = b[16:]
		}
		return out, b, nil
	case tInt:
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated int", ErrWire)
		}
		return int(v), b[n:], nil
	case tF64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("%w: truncated float64", ErrWire)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tString:
		n, b, err := decodeCount(b, 1)
		if err != nil {
			return nil, nil, err
		}
		return string(b[:n]), b[n:], nil
	case tBool:
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("%w: truncated bool", ErrWire)
		}
		return b[0] != 0, b[1:], nil
	case tAnys:
		if depth >= maxAnysDepth {
			return nil, nil, fmt.Errorf("%w: []any nested deeper than %d", ErrWire, maxAnysDepth)
		}
		n, b, err := decodeCount(b, 1) // ≥1 byte per element: its type tag
		if err != nil {
			return nil, nil, err
		}
		out := make([]any, n)
		for i := range out {
			var v any
			if v, b, err = decodeValue(b, depth+1); err != nil {
				return nil, nil, err
			}
			out[i] = v
		}
		return out, b, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown type tag %d", ErrWire, t)
	}
}
