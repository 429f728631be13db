package ccl

import (
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestGrammarKeysMatchParser keeps docs/CCL.md's EBNF and the parser
// naming the same keys. For each stanza it parses a document with an
// unknown key, reads the key list from the error's "(keys: …)", and
// compares it with the alternatives of the stanza's *key production,
// where a nested production named in place (`dist | supervise`) counts
// as its keyword.
func TestGrammarKeysMatchParser(t *testing.T) {
	doc, err := os.ReadFile("../../docs/CCL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ebnf, ok := strings.Cut(string(doc), "```ebnf\n")
	if !ok {
		t.Fatal("docs/CCL.md has no ebnf block")
	}
	ebnf, _, _ = strings.Cut(ebnf, "```")

	const h = "ccl 1\n"
	cases := []struct{ stanza, production, src string }{
		{"app", "appkey", h + "app a {\n  colour red\n}\n"},
		{"repository", "repokey", h + "repository {\n  colour red\n}\n"},
		{"component", "compkey", h + "component c {\n  colour red\n}\n"},
		{"remote", "remotekey", h + "remote r {\n  colour red\n}\n"},
		{"dist", "distkey", h + "remote r {\n  dist {\n    colour red\n  }\n}\n"},
		{"supervise", "supkey", h + "remote r {\n  supervise {\n    colour red\n  }\n}\n"},
		{"export", "exportkey", h + "component c {\n  provider poisson\n}\nexport c.A {\n  colour red\n}\n"},
	}
	for _, c := range cases {
		t.Run(c.stanza, func(t *testing.T) {
			_, err := Parse(c.src, ParseOptions{Path: c.stanza + ".ccl"})
			if !errors.Is(err, ErrUnknownKey) {
				t.Fatalf("unknown key = %v, want ErrUnknownKey", err)
			}
			m := regexp.MustCompile(`\(keys: ([^)]*)\)`).FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error lists no keys: %v", err)
			}
			parser := strings.Split(m[1], ", ")
			docs := productionKeys(t, ebnf, c.production)
			slices.Sort(parser)
			slices.Sort(docs)
			if !slices.Equal(parser, docs) {
				t.Errorf("parser keys %v, docs/CCL.md %s keys %v", parser, c.production, docs)
			}
		})
	}
}

// productionKeys returns the leading keyword of each top-level
// alternative of `name = … ;` in ebnf: a quoted terminal's text, or the
// name of a production referenced in its place.
func productionKeys(t *testing.T, ebnf, name string) []string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + `\s*=([^;]*);`).FindStringSubmatch(ebnf)
	if m == nil {
		t.Fatalf("docs/CCL.md has no production %q", name)
	}
	var keys []string
	depth, start := 0, 0
	body := m[1] + "|"
	for i, r := range body {
		switch r {
		case '(', '{', '[':
			depth++
		case ')', '}', ']':
			depth--
		case '|':
			if depth > 0 {
				continue
			}
			f := strings.Fields(body[start:i])
			if len(f) == 0 {
				t.Fatalf("%s has an empty alternative", name)
			}
			keys = append(keys, strings.Trim(f[0], `"`))
			start = i + 1
		}
	}
	return keys
}
