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
// A value is the one payload kind every backend carries, a []float64
// (vectors, halos, reductions; Barrier sends an empty one, Split its
// triples), with no type tag:
//
//	value    := [uvarint n] n×8 bytes LE (IEEE 754 bits)
//
// The body is packed and unpacked through the SIMD kernels, so a vector
// moves at memcpy speed. A send encodes into a pooled frame, which copies
// the payload as the copy-on-send rule asks; the receiver decodes into a
// fresh slice it owns. A count that overruns the frame, or bytes after the
// value, mark the frame corrupt (ErrWire).
const (
	kHello byte = 1
	kMsg   byte = 2
	kBye   byte = 3
)

// ErrWire reports a corrupt or truncated process-backend frame.
var ErrWire = errors.New("mpi: malformed wire frame")

// wireBufs recycles encode buffers across sends.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// encodeMsg appends a kMsg frame for e to b and returns it.
func encodeMsg(b []byte, e envelope) []byte {
	b = append(b, kMsg)
	b = binary.AppendUvarint(b, uint64(e.source))
	b = binary.AppendUvarint(b, uint64(e.tag))
	b = binary.AppendUvarint(b, uint64(len(e.payload)))
	off := len(b)
	// Extend by reslicing, not append(b, make(…)...): that form clears
	// the bytes PackF64LE overwrites at once, and a pooled buffer
	// usually has the room already.
	b = slices.Grow(b, 8*len(e.payload))[:off+8*len(e.payload)]
	simd.PackF64LE(b[off:], e.payload)
	return b
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
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return envelope{}, fmt.Errorf("%w: truncated count", ErrWire)
	}
	b = b[n:]
	// Check the count against the bytes present, so a corrupt count fails
	// here instead of sizing a huge — or, past MaxInt, negative — make().
	if count > uint64(len(b)/8) {
		return envelope{}, fmt.Errorf("%w: count %d exceeds frame", ErrWire, count)
	}
	if extra := len(b) - 8*int(count); extra != 0 {
		return envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrWire, extra)
	}
	out := make([]float64, count)
	simd.UnpackF64LE(out, b)
	return envelope{source: int(src), tag: int(tag), payload: out}, nil
}
