package sidl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSIDLParse checks the parser's robustness invariant (never panic,
// never hang) and the formatter's round trip: any source that parses
// formats to text that parses again, resolves again when the source
// resolved, and formats to the same text, so Format is idempotent. The
// seeds are the repository's own SIDL: the ESI interfaces and the ports.
func FuzzSIDLParse(f *testing.F) {
	for _, name := range []string{"esi.sidl", "ports.sidl"} {
		src, err := os.ReadFile(filepath.Join("..", "esi", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(esiCorpus)
	f.Add("package p { enum E { A = 1, B } class C extends p.D implements-all p.I { static int f(in int x); } }")

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		_, resolveErr := Resolve(file)
		out := Format(file)
		file2, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\ninput:\n%s\nformatted:\n%s", err, src, out)
		}
		if resolveErr == nil {
			if _, err := Resolve(file2); err != nil {
				t.Fatalf("formatted output does not resolve: %v\nformatted:\n%s", err, out)
			}
		}
		if again := Format(file2); again != out {
			t.Fatalf("format not idempotent:\n--- first\n%s\n--- second\n%s", out, again)
		}
	})
}
