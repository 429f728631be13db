package ccl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse checks the parser's robustness invariant (never panic, never
// hang) and the formatter's round-trip property: any source that parses
// and validates must format to text that parses and validates again, and
// canonical formatting must be a fixed point.
func FuzzParse(f *testing.F) {
	seeds, _ := filepath.Glob("testdata/*.ccl")
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("ccl 1\ncomponent a {\n  provider p\n}\nconnect a.x -> a.y\n")
	f.Add("ccl 1\nremote r {\n  address a\n  key k\n  supervise {\n    timeout 1s\n  }\n}\n")
	f.Add("ccl 1\napp x {\n  description \"${V}\"\n}\n")

	vars := map[string]string{"V": "v", "SIM_ADDR": "a:1", "REPO_ADDR": "a:2"}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := Parse(src, ParseOptions{Path: "fuzz.ccl", Vars: vars})
		if err != nil {
			return
		}
		if err := Validate(doc); err != nil {
			return
		}
		out := Format(doc)
		doc2, err := Parse(out, ParseOptions{Path: "fuzz.ccl"})
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\ninput:\n%s\nformatted:\n%s", err, src, out)
		}
		if err := Validate(doc2); err != nil {
			t.Fatalf("formatted output does not revalidate: %v\nformatted:\n%s", err, out)
		}
		if again := Format(doc2); again != out {
			t.Fatalf("format not a fixed point:\n--- first\n%s\n--- second\n%s", out, again)
		}
	})
}

// FuzzDecodeLock checks the lockfile decoder: it never panics, every
// rejection is the wrapped "ccl: lockfile:" error, any accepted lock
// re-encodes deterministically (Encode∘Decode∘Encode = Encode, byte for
// byte), and a decoded lock verifies against itself.
func FuzzDecodeLock(f *testing.F) {
	seeds, _ := filepath.Glob("../../examples/*/*.lock")
	if len(seeds) == 0 {
		f.Fatal("no committed lockfiles to seed from")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"revision": 7, "components": null}`))
	f.Add([]byte(`{"components": [{"instance": "\ud800", "version": "1"}]}`))
	f.Add([]byte(`{"revision": 1e3}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLock(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "ccl: lockfile: ") || errors.Unwrap(err) == nil {
				t.Fatalf("rejection does not wrap the lockfile error: %v", err)
			}
			return
		}
		enc := l.Encode()
		l2, err := DecodeLock(enc)
		if err != nil {
			t.Fatalf("encoded lock does not decode: %v\n%s", err, enc)
		}
		if again := l2.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode differs:\n--- first\n%s\n--- second\n%s", enc, again)
		}
		if err := compareLocks("fuzz.lock", l, l); err != nil {
			t.Fatalf("lock does not verify against itself: %v", err)
		}
	})
}
