package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeStream builds a small checkpoint stream in memory.
func writeStream(t *testing.T, fn func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	fn(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	vec := []float64{1, 2.5, -3, math.Pi, math.Inf(1), math.Copysign(0, -1)}
	raw := writeStream(t, func(w *Writer) {
		w.Uint64("it", 42)
		w.Float64("tol", 1e-9)
		w.Float64s("x", vec)
		w.Section("blob", []byte("opaque"))
		w.Float64s("empty", nil)
	})
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != Version {
		t.Errorf("version = %d, want %d", v, Version)
	}
	if got := r.Names(); len(got) != 5 || got[0] != "it" || got[4] != "empty" {
		t.Errorf("names = %v", got)
	}
	if v, err := r.Uint64("it"); err != nil || v != 42 {
		t.Errorf("it = %d, %v", v, err)
	}
	if v, err := r.Float64("tol"); err != nil || v != 1e-9 {
		t.Errorf("tol = %v, %v", v, err)
	}
	x, err := r.Float64s("x")
	if err != nil || len(x) != len(vec) {
		t.Fatalf("x = %v, %v", x, err)
	}
	for i := range vec {
		// Bit comparison: ±Inf, negative zero, and every mantissa must
		// survive exactly.
		if math.Float64bits(x[i]) != math.Float64bits(vec[i]) {
			t.Errorf("x[%d] = %x, want %x", i, math.Float64bits(x[i]), math.Float64bits(vec[i]))
		}
	}
	if b, err := r.Bytes("blob"); err != nil || string(b) != "opaque" {
		t.Errorf("blob = %q, %v", b, err)
	}
	if v, err := r.Float64s("empty"); err != nil || len(v) != 0 {
		t.Errorf("empty = %v, %v", v, err)
	}
	if _, err := r.Bytes("ghost"); !errors.Is(err, ErrNoSection) {
		t.Errorf("missing section error = %v", err)
	}
}

func TestEmptyStream(t *testing.T) {
	raw := writeStream(t, func(*Writer) {})
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names()) != 0 {
		t.Errorf("names = %v", r.Names())
	}
}

func TestWriterRejects(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Section("dup", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("dup", []byte{2}); !errors.Is(err, ErrFormat) {
		t.Errorf("duplicate section error = %v", err)
	}
	// The error is sticky: every later call reports it, including Close.
	if err := w.Section("other", nil); !errors.Is(err, ErrFormat) {
		t.Errorf("post-error section = %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrFormat) {
		t.Errorf("close after error = %v", err)
	}

	w = NewWriter(&buf)
	if err := w.Section("", nil); !errors.Is(err, ErrFormat) {
		t.Errorf("empty name error = %v", err)
	}
	w = NewWriter(&buf)
	if err := w.Section(strings.Repeat("n", endMarker), nil); !errors.Is(err, ErrFormat) {
		t.Errorf("long name error = %v", err)
	}
	w = NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("late", nil); !errors.Is(err, ErrFormat) {
		t.Errorf("section after close = %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrFormat) {
		t.Errorf("second close reports sticky error = %v", err)
	}
}

// failAfter errors once n bytes have been written — an io-level crash.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterIOErrorIsSticky(t *testing.T) {
	w := NewWriter(&failAfter{n: 10})
	err := w.Float64s("x", make([]float64, 100))
	if err == nil {
		t.Fatal("write through failing writer succeeded")
	}
	if cerr := w.Close(); cerr == nil {
		t.Fatal("Close after io error succeeded")
	}
}

func TestReaderCorruption(t *testing.T) {
	good := writeStream(t, func(w *Writer) {
		w.Uint64("it", 7)
		w.Float64s("x", []float64{1, 2, 3})
	})

	check := func(name string, raw []byte, want error) {
		t.Helper()
		if _, err := NewReader(bytes.NewReader(raw)); !errors.Is(err, want) {
			t.Errorf("%s: error = %v, want %v", name, err, want)
		}
	}

	check("empty input", nil, ErrTruncated)
	check("bad magic", append([]byte("NOPE"), good[4:]...), ErrMagic)

	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(future[4:6], Version+1)
	check("version from the future", future, ErrVersion)

	// Truncations at every interesting boundary: inside the header, inside
	// a section name, inside a payload, and — the case the trailer exists
	// for — a clean cut right at a section boundary.
	check("cut header", good[:6], ErrTruncated)
	check("cut in first section", good[:12], ErrTruncated)
	check("cut at section boundary", good[:len(good)-2], ErrTruncated)
	trailerless := good[:len(good)-2]
	check("missing trailer", trailerless, ErrTruncated)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-10] ^= 0x40 // a payload byte of "x"
	check("bad payload CRC", flipped, ErrCRC)

	nameFlip := append([]byte(nil), good...)
	nameFlip[10] ^= 0x01 // first byte of the "it" section name
	check("bad name CRC", nameFlip, ErrCRC)

	zeroName := append([]byte(nil), good[:8]...)
	zeroName = append(zeroName, 0, 0)
	check("zero-length name", zeroName, ErrFormat)

	huge := append([]byte(nil), good[:8]...)
	huge = append(huge, 1, 0, 'q')
	huge = binary.LittleEndian.AppendUint64(huge, maxSectionLen+1)
	check("oversized section claim", huge, ErrFormat)

	// A duplicated section is corruption, not a merge.
	section := good[8 : len(good)-2]
	dup := append([]byte(nil), good[:8]...)
	dup = append(dup, section...)
	dup = append(dup, section...)
	dup = append(dup, good[len(good)-2:]...)
	check("duplicate section", dup, ErrFormat)
}

func TestReaderSectionShapeErrors(t *testing.T) {
	raw := writeStream(t, func(w *Writer) {
		w.Section("short", []byte{1, 2, 3})
		w.Section("badvec", append(binary.LittleEndian.AppendUint64(nil, 5), 1, 2, 3))
	})
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Uint64("short"); !errors.Is(err, ErrFormat) {
		t.Errorf("Uint64 on 3-byte section = %v", err)
	}
	if _, err := r.Float64s("short"); !errors.Is(err, ErrFormat) {
		t.Errorf("Float64s on 3-byte section = %v", err)
	}
	if _, err := r.Float64s("badvec"); !errors.Is(err, ErrFormat) {
		t.Errorf("Float64s with lying count = %v", err)
	}
}

func TestFloat64sCountOverflow(t *testing.T) {
	// A crafted (CRC-valid) section whose count makes 8*n wrap past 2⁶⁴
	// must fail with the typed ErrFormat, not slip through a multiplied
	// length check and panic in make().
	raw := writeStream(t, func(w *Writer) {
		w.Section("wrap", binary.LittleEndian.AppendUint64(nil, 1<<61))
		w.Section("ragged", append(binary.LittleEndian.AppendUint64(nil, 1), 1, 2, 3, 4, 5, 6, 7, 8, 9))
	})
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Float64s("wrap"); !errors.Is(err, ErrFormat) {
		t.Errorf("Float64s with wrapping count = %v, want ErrFormat", err)
	}
	if _, err := r.Float64s("ragged"); !errors.Is(err, ErrFormat) {
		t.Errorf("Float64s with ragged payload = %v, want ErrFormat", err)
	}
}

// memComponent is a minimal Checkpointable for the file and byte contracts.
type memComponent struct {
	v    []float64
	seq  uint64
	fail bool
}

func (m *memComponent) Checkpoint(wr io.Writer) error {
	if m.fail {
		return errors.New("component refused")
	}
	w := NewWriter(wr)
	w.Uint64("seq", m.seq)
	w.Float64s("v", m.v)
	return w.Close()
}

func (m *memComponent) Restore(rd io.Reader) error {
	r, err := NewReader(rd)
	if err != nil {
		return err
	}
	if m.seq, err = r.Uint64("seq"); err != nil {
		return err
	}
	m.v, err = r.Float64s("v")
	return err
}

// checkpointFunc adapts a function to Checkpointer.
type checkpointFunc func(io.Writer) error

func (f checkpointFunc) Checkpoint(w io.Writer) error { return f(w) }

func TestMarshalUnmarshal(t *testing.T) {
	src := &memComponent{v: []float64{4, 5, 6}, seq: 9}
	state, err := Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var dst memComponent
	if err := Unmarshal(state, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.seq != 9 || len(dst.v) != 3 || dst.v[2] != 6 {
		t.Errorf("restored = %+v", dst)
	}
	if err := Unmarshal(state[:len(state)-3], &dst); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated unmarshal = %v", err)
	}
}

// TestUnmarshalAllocatesOnce holds restore from memory to one exact
// payload buffer plus the decoded vector, and a hostile length claim on
// such a reader to a failure before anything is sized from it.
func TestUnmarshalAllocatesOnce(t *testing.T) {
	src := &memComponent{v: make([]float64, 1<<17)} // a 1 MiB Float64s section
	state, err := Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(state []byte) (uint64, error) {
		var dst memComponent
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Unmarshal(state, &dst)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	if n, err := allocated(state); err != nil || float64(n) > 2.2*float64(8*len(src.v)) {
		t.Errorf("restoring %d payload bytes allocated %d bytes (%.2f×), %v", 8*len(src.v), n, float64(n)/float64(8*len(src.v)), err)
	}

	// A section that claims the largest legal length and holds 3 bytes.
	huge := writeStream(t, func(w *Writer) {})[:8]
	huge = append(huge, 1, 0, 'q')
	huge = binary.LittleEndian.AppendUint64(huge, maxSectionLen)
	huge = append(huge, 1, 2, 3)
	if n, err := allocated(huge); !errors.Is(err, ErrTruncated) || n > 64<<10 {
		t.Errorf("hostile length: err = %v after allocating %d bytes, want ErrTruncated and no buffer", err, n)
	}
}

func TestSaveFileAtomicOnError(t *testing.T) {
	// A failing checkpoint must leave the previous file untouched and no
	// temp debris — the mid-Checkpoint-crash half of the atomic contract.
	dir := t.TempDir()
	path := filepath.Join(dir, "solver.ckpt")
	if err := SaveTo(path, &memComponent{seq: 1}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := SaveTo(path, &memComponent{seq: 2, fail: true}); err == nil {
		t.Fatal("failing checkpoint reported success")
	}
	if err := SaveTo(path, checkpointFunc(func(wr io.Writer) error {
		NewWriter(wr).Uint64("gen", 3)
		return errors.New("crash mid-checkpoint")
	})); err == nil {
		t.Fatal("checkpoint failing mid-stream reported success")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed checkpoint modified the previous file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "solver.ckpt" {
			t.Errorf("stray file after failed save: %s", e.Name())
		}
	}

	var got memComponent
	if err := LoadInto(path, &got); err != nil || got.seq != 1 {
		t.Errorf("previous checkpoint unreadable: seq=%d err=%v", got.seq, err)
	}
}

func TestLoadFilePartial(t *testing.T) {
	// A partial file under the real path (simulating a non-atomic writer or
	// torn copy) is detected as truncation, never half-applied.
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.ckpt")
	raw := writeStream(t, func(w *Writer) {
		w.Float64s("x", []float64{1, 2, 3, 4})
	})
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	victim := &memComponent{seq: 77, v: []float64{9}}
	if err := LoadInto(path, victim); !errors.Is(err, ErrTruncated) {
		t.Errorf("torn file load = %v", err)
	}
	if victim.seq != 77 || len(victim.v) != 1 {
		t.Errorf("torn load mutated component: %+v", victim)
	}
	if err := LoadInto(filepath.Join(dir, "missing.ckpt"), &memComponent{}); err == nil {
		t.Error("missing file load succeeded")
	}
}
