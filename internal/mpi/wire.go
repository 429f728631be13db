package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// The value encoding is the closed set of payload kinds that cross
// processes — nil (Barrier), []float64 (vectors, halos, reductions) and
// []int (Split) — each a one-byte type tag and a flat body, so a value
// never nests and decoding never recurses. []float64 bodies are packed
// little-endian through the SIMD kernels, so the ubiquitous vector
// payload moves at memcpy speed. Any other Go type fails fast with
// ErrPayloadType at send rather than falling back to reflection: a
// payload that silently worked in-process but not across processes is
// precisely the kind of divergence the conformance suite exists to rule
// out.
//
//	value   := [u8 type] data
//	tNil    — no data
//	tF64s   [uvarint n] n×8 bytes LE (IEEE 754 bits)
//	tInts   [uvarint n] n varints (zigzag)
//
// Any other type tag marks the frame corrupt (ErrWire).
const (
	kHello byte = 1
	kMsg   byte = 2
	kBye   byte = 3
)

const (
	tNil  byte = 0
	tF64s byte = 2
	tInts byte = 3
)

// ErrPayloadType reports a payload whose Go type the process backend
// cannot serialize. The goroutine backend moves such payloads by
// reference; code meant to run on either backend must stick to the wire
// set (nil, []float64 and []int).
var ErrPayloadType = errors.New("mpi: payload type not transferable across processes")

// ErrWire reports a corrupt or truncated process-backend frame.
var ErrWire = errors.New("mpi: malformed wire frame")

// wireBufs recycles encode buffers across sends.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// encodeMsg appends a kMsg frame for e to b and returns it.
func encodeMsg(b []byte, e envelope) ([]byte, error) {
	b = append(b, kMsg)
	b = binary.AppendUvarint(b, uint64(e.source))
	b = binary.AppendUvarint(b, uint64(e.tag))
	switch v := e.payload.(type) {
	case nil:
		return append(b, tNil), nil
	case []float64:
		b = append(b, tF64s)
		b = binary.AppendUvarint(b, uint64(len(v)))
		off := len(b)
		// Extend by reslicing, not append(b, make(…)...): that form clears
		// the bytes PackF64LE overwrites at once, and a pooled buffer
		// usually has the room already.
		b = slices.Grow(b, 8*len(v))[:off+8*len(v)]
		simd.PackF64LE(b[off:], v)
		return b, nil
	case []int:
		b = append(b, tInts)
		b = binary.AppendUvarint(b, uint64(len(v)))
		for _, x := range v {
			b = binary.AppendVarint(b, int64(x))
		}
		return b, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrPayloadType, e.payload)
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
	p, rest, err := decodeValue(b)
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

// decodeValue decodes one value and returns the bytes after it.
func decodeValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: missing type tag", ErrWire)
	}
	t, b := b[0], b[1:]
	switch t {
	case tNil:
		return nil, b, nil
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
	default:
		return nil, nil, fmt.Errorf("%w: unknown type tag %d", ErrWire, t)
	}
}
