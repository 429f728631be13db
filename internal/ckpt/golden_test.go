package ckpt

// Golden checkpoint vectors: byte-exact fixtures for the RCK1 stream
// layout. A checkpoint written by one build must restore under every later
// build, so these bytes are a compatibility contract exactly like the orb
// wire vectors. Regenerate with
//
//	go test ./internal/ckpt -run Golden -update
//
// ONLY when the change is an intentional, version-bumped format change.

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden checkpoint fixtures")

func goldenVectors(t *testing.T) []struct {
	name  string
	bytes []byte
} {
	t.Helper()
	return []struct {
		name  string
		bytes []byte
	}{
		// Header + trailer only: the shortest legal stream.
		{"empty", writeStream(t, func(*Writer) {})},
		// One section of each helper encoding.
		{"scalars", writeStream(t, func(w *Writer) {
			w.Uint64("it", 17)
			w.Float64("tol", 1e-9)
		})},
		// Vector sections, including the IEEE edge values whose bits a
		// restore must reproduce exactly.
		{"vectors", writeStream(t, func(w *Writer) {
			w.Float64s("x", []float64{1, -2.5, math.Pi})
			w.Float64s("edge", []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64})
			w.Float64s("empty", nil)
		})},
		// Raw named payload.
		{"raw", writeStream(t, func(w *Writer) {
			w.Section("blob", []byte{0x00, 0x01, 0xFE, 0xFF})
		})},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", "ckpt", name+".hex")
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	var sb strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' || r == '\r' {
				return -1
			}
			return r
		}, line))
	}
	b, err := hex.DecodeString(sb.String())
	if err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", name, err)
	}
	return b
}

func writeGolden(t *testing.T, name string, b []byte) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# golden checkpoint vector %q — regenerate only on an intentional format bump\n", name)
	for i := 0; i < len(b); i += 16 {
		end := i + 16
		if end > len(b) {
			end = len(b)
		}
		fmt.Fprintf(&sb, "%x\n", b[i:end])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCheckpointVectors pins today's Writer output to the fixtures.
func TestGoldenCheckpointVectors(t *testing.T) {
	for _, v := range goldenVectors(t) {
		t.Run(v.name, func(t *testing.T) {
			if *update {
				writeGolden(t, v.name, v.bytes)
				return
			}
			want := readGolden(t, v.name)
			if !bytes.Equal(v.bytes, want) {
				t.Fatalf("checkpoint format changed for %s:\n got %x\nwant %x\n"+
					"If intentional, bump Version and regenerate with -update.",
					v.name, v.bytes, want)
			}
		})
	}
}

// TestGoldenCheckpointsStillRestore reads the pinned bytes through the real
// Reader: old checkpoints must not just match, they must still restore.
func TestGoldenCheckpointsStillRestore(t *testing.T) {
	if *update {
		t.Skip("fixtures being rewritten")
	}
	r, err := NewReader(bytes.NewReader(readGolden(t, "scalars")))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Uint64("it"); err != nil || v != 17 {
		t.Errorf("it = %d, %v", v, err)
	}
	if v, err := r.Float64("tol"); err != nil || v != 1e-9 {
		t.Errorf("tol = %v, %v", v, err)
	}
	r, err = NewReader(bytes.NewReader(readGolden(t, "vectors")))
	if err != nil {
		t.Fatal(err)
	}
	edge, err := r.Float64s("edge")
	if err != nil || len(edge) != 4 {
		t.Fatalf("edge = %v, %v", edge, err)
	}
	if !math.IsInf(edge[0], 1) || !math.IsInf(edge[1], -1) ||
		math.Float64bits(edge[2]) != math.Float64bits(math.Copysign(0, -1)) ||
		edge[3] != math.MaxFloat64 {
		t.Errorf("edge values = %v", edge)
	}
	r, err = NewReader(bytes.NewReader(readGolden(t, "raw")))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := r.Bytes("blob"); err != nil || !bytes.Equal(b, []byte{0x00, 0x01, 0xFE, 0xFF}) {
		t.Errorf("blob = %x, %v", b, err)
	}
}
