package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzCkptReader feeds NewReader arbitrary bytes. Checkpoint streams reach
// a servant from the wire (the orb/restore replay after a crash restart),
// so the reader is parsing peer-controlled input: whatever the bytes, it
// and every section accessor must fail with the package's typed errors —
// never panic — and no input may drive an allocation beyond a fixed slack
// plus a small multiple of its own length.
func FuzzCkptReader(f *testing.F) {
	for _, name := range []string{"empty", "scalars", "vectors", "raw"} {
		f.Add(readGolden(f, name))
	}
	typed := func(err error, kinds ...error) bool {
		for _, k := range kinds {
			if errors.Is(err, k) {
				return true
			}
		}
		return false
	}
	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, b []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			if !typed(err, ErrMagic, ErrVersion, ErrCRC, ErrTruncated, ErrFormat) {
				t.Fatalf("untyped reader error: %v", err)
			}
		} else {
			if v := binary.LittleEndian.Uint16(b[4:6]); v > Version {
				t.Fatalf("accepted stream version %d > %d", v, Version)
			}
			for _, name := range r.Names() {
				p, err := r.Bytes(name)
				if err != nil {
					t.Fatalf("listed section %q: %v", name, err)
				}
				if _, err := r.Uint64(name); err != nil && !typed(err, ErrFormat) {
					t.Fatalf("Uint64(%q): %v", name, err)
				}
				if _, err := r.Float64(name); err != nil && !typed(err, ErrFormat) {
					t.Fatalf("Float64(%q): %v", name, err)
				}
				v, err := r.Float64s(name)
				if err != nil && !typed(err, ErrFormat) {
					t.Fatalf("Float64s(%q): %v", name, err)
				}
				if err == nil && 8+8*len(v) != len(p) {
					t.Fatalf("Float64s(%q) decoded %d values from %d bytes", name, len(v), len(p))
				}
			}
			if _, err := r.Bytes("\x00absent"); !typed(err, ErrNoSection) {
				t.Fatalf("absent section: %v", err)
			}
		}
		runtime.ReadMemStats(&ms)
		// Fixed slack: one section name (< 64 KiB) and the first payload
		// step (64 KiB), plus the reader's maps and error strings.
		if grew, limit := ms.TotalAlloc-before, uint64(256<<10+16*len(b)); grew > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(b), grew, limit)
		}
	})
}
