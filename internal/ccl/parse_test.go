package ccl

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestParseGolden parses each testdata/*.ccl, validates it, and compares
// the canonical formatting against the checked-in .golden file. The
// goldens double as the fuzz corpus and as worked grammar examples.
func TestParseGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.ccl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden inputs: %v", err)
	}
	vars := goldenVars()
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := Parse(string(src), ParseOptions{Path: path, Vars: vars})
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := Validate(doc); err != nil {
				t.Fatalf("validate: %v", err)
			}
			got := Format(doc)

			// Canonical formatting must be a fixed point: reparse and
			// reformat reproduce it byte for byte.
			doc2, err := Parse(got, ParseOptions{Path: path})
			if err != nil {
				t.Fatalf("reparse of formatted output: %v\n%s", err, got)
			}
			if err := Validate(doc2); err != nil {
				t.Fatalf("revalidate: %v", err)
			}
			if again := Format(doc2); again != got {
				t.Fatalf("format not idempotent:\n--- first\n%s\n--- second\n%s", got, again)
			}

			golden := strings.TrimSuffix(path, ".ccl") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("formatting differs from %s:\n--- got\n%s\n--- want\n%s", golden, got, want)
			}
		})
	}
}

// goldenVars binds the variables the golden inputs interpolate.
func goldenVars() map[string]string {
	return map[string]string{
		"SIM_ADDR":  "127.0.0.1:7001",
		"REPO_ADDR": "tcp://127.0.0.1:7070",
	}
}

// TestParseExamples parses the checked-in example assemblies.
func TestParseExamples(t *testing.T) {
	for _, path := range []string{
		"../../examples/solverswap/solverswap.ccl",
		"../../examples/distviz/distviz.ccl",
	} {
		if _, err := Load(path, goldenVars()); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestParseErrors is the error-class table: one (or more) source per
// typed error the parser and validator can produce, asserting the class
// via errors.Is and the position prefix.
func TestParseErrors(t *testing.T) {
	const h = "ccl 1\n"
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"empty", "", ErrHeader},
		{"comment only", "# nothing\n", ErrHeader},
		{"bad header keyword", "assembly 1\n", ErrHeader},
		{"unsupported version", "ccl 2\n", ErrHeader},
		{"document version", "", ErrHeader}, // Validate path checked below

		{"unterminated string", h + "app a {\n  description \"oops\n}\n", ErrSyntax},
		{"unknown escape", h + "app a {\n  description \"\\q\"\n}\n", ErrSyntax},
		{"unterminated var", h + "app a {\n  description \"${X\"\n}\n", ErrSyntax},
		{"stray char", h + "app a { }\n", ErrSyntax},
		{"unmatched close", h + "}\n", ErrSyntax},
		{"unclosed stanza", h + "app a {\n", ErrSyntax},
		{"bad connect arity", h + "component c { provider poisson }\n", ErrSyntax},
		{"connect no arrow", h + "component x {\n}\nconnect x.a x.b\n", ErrSyntax},
		{"connect bad endpoint", h + "component x {\n}\nconnect x -> x.b\n", ErrSyntax},
		{"top-level setting", h + "address tcp://x\n", ErrSyntax},
		{"quoted key", h + "app a {\n  \"description\" x\n}\n", ErrSyntax},

		{"unknown stanza", h + "widget w {\n}\n", ErrUnknownStanza},
		{"dist at top level", h + "dist {\n}\n", ErrUnknownStanza},
		{"config in remote", h + "remote r {\n  config {\n  }\n}\n", ErrUnknownStanza},

		{"unknown app key", h + "app a {\n  colour red\n}\n", ErrUnknownKey},
		{"unknown component key", h + "component c {\n  colour red\n}\n", ErrUnknownKey},
		{"unknown dist key", h + "remote r {\n  dist {\n    stripes 4\n  }\n}\n", ErrUnknownKey},
		{"unknown supervise key", h + "remote r {\n  supervise {\n    lives 9\n  }\n}\n", ErrUnknownKey},

		{"negative supervise", h + "remote r {\n  supervise {\n    retries -1\n  }\n}\n", ErrBadValue},
		{"bad duration", h + "remote r {\n  supervise {\n    timeout fast\n  }\n}\n", ErrBadValue},
		{"type and provider", h + "component c {\n  type t.T\n  provider poisson\n}\n", ErrBadValue},
		{"version on provider", h + "component c {\n  provider poisson\n  version ^1\n}\n", ErrBadValue},
		{"bad dist map", h + "remote r {\n  address a\n  key k\n  dist {\n    map diagonal\n    length 10\n    ranks 2\n  }\n}\n", ErrBadValue},
		{"block on block map", h + "remote r {\n  address a\n  key k\n  dist {\n    map block\n    length 10\n    ranks 2\n    block 8\n  }\n}\n", ErrBadValue},
		{"dotted instance", h + "component a.b {\n  provider poisson\n}\n", ErrBadValue},
		{"dist remote type", h + "remote r {\n  address a\n  key k\n  type esi.Operator\n  dist {\n    map block\n    length 10\n    ranks 2\n  }\n}\n", ErrBadValue},

		{"duplicate instance", h + "component x {\n  provider poisson\n}\nremote x {\n  address a\n  key k\n}\n", ErrDuplicate},
		{"duplicate repository", h + "repository {\n}\nrepository {\n}\n", ErrDuplicate},
		{"duplicate app", h + "app a {\n}\napp b {\n}\n", ErrDuplicate},
		{"duplicate dist", h + "remote r {\n  dist {\n  }\n  dist {\n  }\n}\n", ErrDuplicate},

		{"app without name", h + "app {\n}\n", ErrMissingKey},
		{"component without type", h + "component c {\n}\n", ErrMissingKey},
		{"remote without address", h + "remote r {\n  key k\n}\n", ErrMissingKey},
		{"remote without key", h + "remote r {\n  address a\n}\n", ErrMissingKey},
		{"dist without map", h + "remote r {\n  address a\n  key k\n  dist {\n    length 10\n    ranks 2\n  }\n}\n", ErrMissingKey},
		{"dist without length", h + "remote r {\n  address a\n  key k\n  dist {\n    map block\n    ranks 2\n  }\n}\n", ErrMissingKey},
		{"cyclic without block", h + "remote r {\n  address a\n  key k\n  dist {\n    map cyclic\n    length 10\n    ranks 2\n  }\n}\n", ErrMissingKey},

		{"connect unknown user", h + "component x {\n  provider poisson\n}\nconnect y.a -> x.b\n", ErrUndefined},
		{"connect unknown provider", h + "component x {\n  provider poisson\n}\nconnect x.a -> y.b\n", ErrUndefined},
		{"export unknown instance", h + "export ghost.A {\n}\n", ErrUndefined},

		{"unknown variable", h + "repository {\n  address \"${NOPE}\"\n}\n", ErrUnknownVar},

		{"bad constraint", h + "component c {\n  type t.T\n  version ^^\n}\n", nil /* repo.ErrBadVersion, checked below */},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc, err := Parse(c.src, ParseOptions{Path: "err.ccl"})
			if err == nil {
				err = Validate(doc)
			}
			if err == nil {
				t.Fatalf("no error for:\n%s", c.src)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("error %v is not %v", err, c.want)
			}
			if !strings.Contains(err.Error(), "ccl") {
				t.Fatalf("error lacks position/namespace: %v", err)
			}
		})
	}
}

// TestSuperviseRestartIsUnknown pins the supervise block's four keys.
// `restart` is not one: re-attaching to a servant restarted at the same
// address is what the supervisor's half-open probe already does.
func TestSuperviseRestartIsUnknown(t *testing.T) {
	src := "ccl 1\nremote r {\n  address a\n  key k\n  supervise {\n    restart 2\n  }\n}\n"
	_, err := Parse(src, ParseOptions{Path: "sup.ccl"})
	if !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("restart in supervise = %v, want ErrUnknownKey", err)
	}
	if !strings.Contains(err.Error(), "(keys: retries, breaker, timeout, heartbeat)") {
		t.Fatalf("error does not list the four supervise keys: %v", err)
	}
}

// TestExportHasOnlyAddressKey pins the export block's one key. `shards` is
// not one: an export serves one listener at its one address.
func TestExportHasOnlyAddressKey(t *testing.T) {
	src := "ccl 1\ncomponent c {\n  provider poisson\n}\nexport c.A {\n  shards 2\n}\n"
	_, err := Parse(src, ParseOptions{Path: "export.ccl"})
	if !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("shards in export = %v, want ErrUnknownKey", err)
	}
	if !strings.HasSuffix(err.Error(), "(keys: address)") {
		t.Fatalf("error does not list address as the only export key: %v", err)
	}
}

// TestParseVars covers interpolation mechanics.
func TestParseVars(t *testing.T) {
	src := "ccl 1\napp a {\n  description \"run ${WHO} at \\$HOME, ${N}%\"\n}\n"
	doc, err := Parse(src, ParseOptions{Vars: map[string]string{"WHO": "viz", "N": "99"}})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Description != "run viz at $HOME, 99%" {
		t.Fatalf("interpolated description %q", doc.Description)
	}
	// Interpolation happens only inside quoted strings.
	src2 := "ccl 1\ncomponent ${X} {\n  provider poisson\n}\n"
	if _, err := Parse(src2, ParseOptions{}); !errors.Is(err, ErrSyntax) {
		t.Fatalf("bare ${...} should be a syntax error, got %v", err)
	}
}
