package repo

import (
	"errors"
	"testing"
)

func TestParseVersion(t *testing.T) {
	cases := []struct {
		in   string
		want Version
		ok   bool
	}{
		{"1.2.3", Version{1, 2, 3}, true},
		{"1.2", Version{1, 2, 0}, true},
		{"1", Version{1, 0, 0}, true},
		{"v2.0.1", Version{2, 0, 1}, true},
		{" 1.0 ", Version{1, 0, 0}, true},
		{"0.0.0", Version{0, 0, 0}, true},
		{"", Version{}, false},
		{"1.2.3.4", Version{}, false},
		{"1.x", Version{}, false},
		{"-1.0", Version{}, false},
		{"a.b.c", Version{}, false},
	}
	for _, c := range cases {
		got, err := ParseVersion(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseVersion(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseVersion(%q) = %v, want %v", c.in, got, c.want)
		}
		if !c.ok && !errors.Is(err, ErrBadVersion) {
			t.Errorf("ParseVersion(%q) error %v is not ErrBadVersion", c.in, err)
		}
	}
}

func TestVersionCompare(t *testing.T) {
	order := []Version{{0, 0, 0}, {0, 0, 9}, {0, 1, 0}, {1, 0, 0}, {1, 0, 1}, {1, 2, 0}, {2, 0, 0}}
	for i, a := range order {
		for j, b := range order {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Compare(b); got != want {
				t.Errorf("%v.Compare(%v) = %d, want %d", a, b, got, want)
			}
			if got := a.Less(b); got != (i < j) {
				t.Errorf("%v.Less(%v) = %v, want %v", a, b, got, i < j)
			}
		}
	}
	if got := (Version{1, 2, 3}).String(); got != "1.2.3" {
		t.Errorf("String: %v", got)
	}
}

// TestConstraintTable is the resolver version-constraint table: each
// spelling of the constraint grammar against a ladder of versions, and the
// version Repository.Resolve picks from that ladder.
func TestConstraintTable(t *testing.T) {
	versions := []string{"0.9.0", "1.0.0", "1.1.0", "1.2.0", "1.2.5", "1.3.0", "2.0.0", "2.1.0"}
	r := New()
	for _, v := range versions {
		if err := r.Deposit(Entry{Name: "ladder", Version: v}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		constraint string
		match      []string // subset of versions that must match
		best       string   // highest matching, "" when none
	}{
		{"*", versions, "2.1.0"},
		{"", versions, "2.1.0"},
		{"1.2.0", []string{"1.2.0"}, "1.2.0"},
		{"=1.2", []string{"1.2.0"}, "1.2.0"},
		{"==1.2.5", []string{"1.2.5"}, "1.2.5"},
		{"^1.0", []string{"1.0.0", "1.1.0", "1.2.0", "1.2.5", "1.3.0"}, "1.3.0"},
		{"^1.2", []string{"1.2.0", "1.2.5", "1.3.0"}, "1.3.0"},
		{"^2", []string{"2.0.0", "2.1.0"}, "2.1.0"},
		{"~1.2", []string{"1.2.0", "1.2.5"}, "1.2.5"},
		{"~1.4", nil, ""},
		{">=1.2", []string{"1.2.0", "1.2.5", "1.3.0", "2.0.0", "2.1.0"}, "2.1.0"},
		{">1.2", []string{"1.2.5", "1.3.0", "2.0.0", "2.1.0"}, "2.1.0"},
		{"<=1.2", []string{"0.9.0", "1.0.0", "1.1.0", "1.2.0"}, "1.2.0"},
		{"<1", []string{"0.9.0"}, "0.9.0"},
		{">=1.0 <2.0", []string{"1.0.0", "1.1.0", "1.2.0", "1.2.5", "1.3.0"}, "1.3.0"},
		{">1 <1.3", []string{"1.1.0", "1.2.0", "1.2.5"}, "1.2.5"},
		{">=3", nil, ""},
	}
	for _, c := range cases {
		con, err := ParseConstraint(c.constraint)
		if err != nil {
			t.Errorf("ParseConstraint(%q): %v", c.constraint, err)
			continue
		}
		matchSet := map[string]bool{}
		for _, m := range c.match {
			matchSet[m] = true
		}
		for _, vs := range versions {
			v, err := ParseVersion(vs)
			if err != nil {
				t.Fatal(err)
			}
			if got := con.Match(v); got != matchSet[vs] {
				t.Errorf("constraint %q match %s = %v, want %v", c.constraint, vs, got, matchSet[vs])
			}
		}
		_, best, err := r.Resolve("ladder", c.constraint)
		if c.best == "" {
			if !errors.Is(err, ErrNoMatch) {
				t.Errorf("constraint %q Resolve = %v/%v, want ErrNoMatch", c.constraint, best, err)
			}
		} else if err != nil || best.String() != c.best {
			t.Errorf("constraint %q Resolve = %v/%v, want %s", c.constraint, best, err, c.best)
		}
	}
}

func TestConstraintErrors(t *testing.T) {
	for _, bad := range []string{"^", ">=", "1.2.x", "!= 1.0", "^1.2.3.4"} {
		if _, err := ParseConstraint(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("ParseConstraint(%q) = %v, want ErrBadVersion", bad, err)
		}
	}
	c, err := ParseConstraint("  ")
	if err != nil || c.String() != "*" || !c.Match(Version{}) {
		t.Errorf("blank constraint: %v %v %q", c, err, c.String())
	}
	if got, err := ParseConstraint("^1.2"); err != nil || got.String() != "^1.2" || got.Match(Version{}) {
		t.Errorf("^1.2: %v %v", got, err)
	}
}
