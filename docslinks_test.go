package repro

// Docs checkers. Links: every relative link in the repository's markdown
// must point at a file that exists, and every same-file `#anchor` link
// must match a heading. The doc set is navigable from the README's docs
// map, so a renamed file or section breaks CI, not a reader. Bench
// targets: every "Bench target" cell of DESIGN.md §3's experiment index
// must name Benchmark functions that exist.

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// [text](target) — inline links only; reference-style links are not
	// used in this repo. The target is cut at the first ')'.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdHead = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)

	benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)
	mdCode    = regexp.MustCompile("`([^`]*)`")
)

// githubSlug mimics GitHub's heading-anchor algorithm closely enough for
// the anchors this repo writes: lowercase, code ticks dropped, everything
// but letters/digits/spaces/hyphens/underscores removed, spaces to
// hyphens.
func githubSlug(heading string) string {
	h := strings.ToLower(strings.TrimSpace(heading))
	h = strings.ReplaceAll(h, "`", "")
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}

func TestDocsRelativeLinks(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found (test must run from the repo root)")
	}

	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Anchors defined by this file's own headings.
		anchors := map[string]bool{}
		for _, m := range mdHead.FindAllStringSubmatch(string(src), -1) {
			anchors[githubSlug(m[1])] = true
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(src), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
				continue // external
			case strings.HasPrefix(target, "#"):
				if !anchors[target[1:]] {
					t.Errorf("%s: anchor link %q matches no heading", path, target)
				}
				continue
			}
			// Relative file link; an anchor suffix is checked against the
			// target file's headings.
			file, frag, _ := strings.Cut(target, "#")
			dest := filepath.Join(filepath.Dir(path), file)
			data, err := os.ReadFile(dest)
			if err != nil {
				t.Errorf("%s: dead relative link %q (%v)", path, target, err)
				continue
			}
			if frag != "" && strings.EqualFold(filepath.Ext(dest), ".md") {
				found := false
				for _, hm := range mdHead.FindAllStringSubmatch(string(data), -1) {
					if githubSlug(hm[1]) == frag {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: link %q: no heading in %s matches #%s", path, target, dest, frag)
				}
			}
		}
	}
}

// TestDesignBenchTargetsExist holds DESIGN.md §3's experiment index to the
// harness: each row E1–E15 (E2b and E7b included) must name, in its last
// column, at least one root-package Benchmark function, by its exact
// name, and nothing that is not one.
func TestDesignBenchTargetsExist(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	benchmarks := map[string]bool{}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
			benchmarks[m[1]] = true
		}
	}

	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"E2b": false, "E7b": false}
	for i := 1; i <= 15; i++ {
		want["E"+strconv.Itoa(i)] = false
	}
	for _, line := range strings.Split(string(src), "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		id := strings.TrimSpace(cells[0])
		if _, ok := want[id]; !ok || len(cells) != 5 {
			continue
		}
		want[id] = true
		targets := mdCode.FindAllStringSubmatch(cells[4], -1)
		if len(targets) == 0 {
			t.Errorf("DESIGN.md §3 row %s: no bench target", id)
		}
		for _, m := range targets {
			if !benchmarks[m[1]] {
				t.Errorf("DESIGN.md §3 row %s: bench target %q is not a Benchmark function in the root package", id, m[1])
			}
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("DESIGN.md §3 has no index row for %s", id)
		}
	}
}
