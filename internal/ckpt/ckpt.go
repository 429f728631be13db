package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/simd"
)

// Version is the stream version this package writes. Readers accept any
// version up to and including it and refuse newer streams with ErrVersion.
const Version = 1

// magic identifies a checkpoint stream.
var magic = [4]byte{'R', 'C', 'K', '1'}

// endMarker is the reserved nameLen value that terminates a stream.
const endMarker = 0xFFFF

// maxSectionLen bounds a single section payload (1 GiB): a corrupt length
// prefix fails typed instead of driving a giant allocation.
const maxSectionLen = 1 << 30

// Typed corruption errors. Every decode failure wraps exactly one of
// these, so callers can distinguish "file from a newer build" from "file
// damaged in flight" from "file cut short".
var (
	ErrMagic     = errors.New("ckpt: bad magic (not a checkpoint stream)")
	ErrVersion   = errors.New("ckpt: stream version is newer than this reader")
	ErrCRC       = errors.New("ckpt: section CRC mismatch")
	ErrTruncated = errors.New("ckpt: stream truncated before trailer")
	ErrFormat    = errors.New("ckpt: malformed stream")
	ErrNoSection = errors.New("ckpt: no such section")
)

// Writer emits a checkpoint stream. Methods record the first error and make
// every later call a no-op returning it; Close reports the sticky error, so
// straight-line Section/Close sequences need only check Close.
type Writer struct {
	w       io.Writer
	err     error
	opened  bool
	closed  bool
	names   map[string]bool
	scratch []byte
}

// NewWriter starts a checkpoint stream on w. The header is written on the
// first Section (or Close), so construction itself cannot fail.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, names: map[string]bool{}}
}

func (w *Writer) open() {
	if w.opened || w.err != nil {
		return
	}
	w.opened = true
	var hdr [8]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	// hdr[6:8] flags, reserved zero.
	_, w.err = w.w.Write(hdr[:])
}

// Section appends one named, CRC-guarded record.
func (w *Writer) Section(name string, payload []byte) error {
	w.open()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("%w: section %q after Close", ErrFormat, name)
		return w.err
	}
	if len(name) == 0 || len(name) >= endMarker {
		w.err = fmt.Errorf("%w: section name length %d", ErrFormat, len(name))
		return w.err
	}
	if w.names[name] {
		w.err = fmt.Errorf("%w: duplicate section %q", ErrFormat, name)
		return w.err
	}
	if len(payload) > maxSectionLen {
		w.err = fmt.Errorf("%w: section %q payload %d bytes", ErrFormat, name, len(payload))
		return w.err
	}
	w.names[name] = true
	var nameLen [2]byte
	binary.LittleEndian.PutUint16(nameLen[:], uint16(len(name)))
	var payLen [8]byte
	binary.LittleEndian.PutUint64(payLen[:], uint64(len(payload)))
	crc := crc32.ChecksumIEEE([]byte(name))
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	for _, b := range [][]byte{nameLen[:], []byte(name), payLen[:], payload, tail[:]} {
		if _, w.err = w.w.Write(b); w.err != nil {
			return w.err
		}
	}
	return nil
}

// Uint64 writes a single unsigned integer section.
func (w *Writer) Uint64(name string, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return w.Section(name, buf[:])
}

// Float64 writes a single scalar section, preserving the exact bits.
func (w *Writer) Float64(name string, v float64) error {
	return w.Uint64(name, math.Float64bits(v))
}

// Float64s writes a vector section: uint64 count followed by the raw
// IEEE-754 bits of each element — the bit-identical representation the
// distributed-array round trip depends on.
func (w *Writer) Float64s(name string, v []float64) error {
	buf := w.scratch
	need := 8 + 8*len(v)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint64(buf, uint64(len(v)))
	simd.PackF64LE(buf[8:], v)
	w.scratch = buf
	return w.Section(name, buf)
}

// Close writes the trailer and reports any error recorded along the way.
// It does not close the underlying writer.
func (w *Writer) Close() error {
	w.open()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	var end [2]byte
	binary.LittleEndian.PutUint16(end[:], endMarker)
	_, w.err = w.w.Write(end[:])
	return w.err
}

// Reader parses and verifies a complete checkpoint stream up front —
// header, every section CRC, and the trailer — then serves sections by
// name. Eager verification means a Restore never begins applying state
// from a stream whose tail is corrupt.
type Reader struct {
	sections map[string][]byte
	order    []string
}

// NewReader consumes r to the stream trailer and verifies it.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: %q", ErrMagic, hdr[:4])
	}
	version := binary.LittleEndian.Uint16(hdr[4:6])
	if version > Version {
		return nil, fmt.Errorf("%w: stream v%d, reader v%d", ErrVersion, version, Version)
	}
	rd := &Reader{sections: map[string][]byte{}}
	for {
		var pre [2]byte
		if _, err := io.ReadFull(r, pre[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		nameLen := binary.LittleEndian.Uint16(pre[:])
		if nameLen == endMarker {
			return rd, nil
		}
		if nameLen == 0 {
			return nil, fmt.Errorf("%w: zero-length section name", ErrFormat)
		}
		var lenBuf [8]byte
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("%w: section name: %v", ErrTruncated, err)
		}
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: section %q length: %v", ErrTruncated, name, err)
		}
		payLen := binary.LittleEndian.Uint64(lenBuf[:])
		if payLen > maxSectionLen {
			return nil, fmt.Errorf("%w: section %q claims %d bytes", ErrFormat, name, payLen)
		}
		payload, err := readPayload(r, payLen)
		if err != nil {
			return nil, fmt.Errorf("%w: section %q payload: %v", ErrTruncated, name, err)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: section %q crc: %v", ErrTruncated, name, err)
		}
		crc := crc32.ChecksumIEEE(name)
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if got := binary.LittleEndian.Uint32(crcBuf[:]); got != crc {
			return nil, fmt.Errorf("%w: section %q: stored %08x, computed %08x", ErrCRC, name, got, crc)
		}
		if _, dup := rd.sections[string(name)]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrFormat, name)
		}
		rd.sections[string(name)] = payload
		rd.order = append(rd.order, string(name))
	}
}

// readPayload reads an n-byte section payload. A corrupt or hostile length
// prefix must cost what the stream holds, not what it claims. A reader that
// knows its remaining length (a bytes.Reader, as Unmarshal uses) is checked
// against it and read into one exact buffer; any other reader fills a
// buffer that grows, doubling from at most 64 KiB, only as bytes arrive,
// so a genuine payload costs at most twice its size.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	if lr, ok := r.(interface{ Len() int }); ok {
		if n > uint64(lr.Len()) {
			return nil, fmt.Errorf("%d bytes claimed, %d left: %w", n, lr.Len(), io.ErrUnexpectedEOF)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, min(n, 64<<10))
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err != nil {
			return nil, err
		}
		if uint64(got) == n {
			return buf, nil
		}
		next := make([]byte, min(n, 2*uint64(len(buf))))
		copy(next, buf)
		buf = next
	}
}

// Names lists the stream's sections in written order.
func (r *Reader) Names() []string { return append([]string(nil), r.order...) }

// Bytes returns a section's raw payload.
func (r *Reader) Bytes(name string) ([]byte, error) {
	p, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSection, name)
	}
	return p, nil
}

// Uint64 decodes a Writer.Uint64 section.
func (r *Reader) Uint64(name string) (uint64, error) {
	p, err := r.Bytes(name)
	if err != nil {
		return 0, err
	}
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: section %q is %d bytes, want 8", ErrFormat, name, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// Float64 decodes a Writer.Float64 section.
func (r *Reader) Float64(name string) (float64, error) {
	v, err := r.Uint64(name)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(v), nil
}

// Float64s decodes a Writer.Float64s section.
func (r *Reader) Float64s(name string) ([]float64, error) {
	p, err := r.Bytes(name)
	if err != nil {
		return nil, err
	}
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: section %q is %d bytes", ErrFormat, name, len(p))
	}
	n := binary.LittleEndian.Uint64(p)
	// Divide rather than multiply: 8*n wraps for a crafted n ≥ 2⁶¹, which
	// would pass the check and panic in make() instead of returning the
	// package's typed ErrFormat.
	if (len(p)-8)%8 != 0 || n != uint64(len(p)-8)/8 {
		return nil, fmt.Errorf("%w: section %q counts %d elements in %d bytes", ErrFormat, name, n, len(p)-8)
	}
	out := make([]float64, n)
	simd.UnpackF64LE(out, p[8:])
	return out, nil
}
