package repo

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Version-constraint machinery for the networked repository and the CCL
// resolver (repro/internal/ccl): deposited components carry semantic
// versions, assembly documents carry constraints, and the resolver turns a
// constraint into the one concrete version a lockfile records.

// ErrBadVersion reports an unparseable version or constraint.
var ErrBadVersion = errors.New("repo: bad version")

// Version is a semantic version triple. Missing components parse as zero,
// so "1" and "1.0" mean 1.0.0.
type Version struct {
	Major, Minor, Patch int
}

// ParseVersion parses "M", "M.m", or "M.m.p" (an optional leading "v" is
// tolerated).
func ParseVersion(s string) (Version, error) {
	orig := s
	s = strings.TrimPrefix(strings.TrimSpace(s), "v")
	if s == "" {
		return Version{}, fmt.Errorf("%w: empty version", ErrBadVersion)
	}
	parts := strings.Split(s, ".")
	if len(parts) > 3 {
		return Version{}, fmt.Errorf("%w: %q has %d components", ErrBadVersion, orig, len(parts))
	}
	var nums [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return Version{}, fmt.Errorf("%w: %q", ErrBadVersion, orig)
		}
		nums[i] = n
	}
	return Version{nums[0], nums[1], nums[2]}, nil
}

// String renders the canonical M.m.p form.
func (v Version) String() string {
	return fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Patch)
}

// Compare returns -1, 0, or +1 by semantic-version order.
func (v Version) Compare(o Version) int {
	for _, d := range [3]int{v.Major - o.Major, v.Minor - o.Minor, v.Patch - o.Patch} {
		if d < 0 {
			return -1
		}
		if d > 0 {
			return 1
		}
	}
	return 0
}

// Less reports v < o.
func (v Version) Less(o Version) bool { return v.Compare(o) < 0 }

// constraintOp is one comparison term of a constraint.
type constraintOp struct {
	op string // "", ">=", ">", "<=", "<", "^", "~"
	v  Version
}

func (t constraintOp) match(v Version) bool {
	switch t.op {
	case "", "=", "==":
		return v.Compare(t.v) == 0
	case ">=":
		return v.Compare(t.v) >= 0
	case ">":
		return v.Compare(t.v) > 0
	case "<=":
		return v.Compare(t.v) <= 0
	case "<":
		return v.Compare(t.v) < 0
	case "^":
		// Compatible within the same major version.
		return v.Major == t.v.Major && v.Compare(t.v) >= 0
	case "~":
		// Compatible within the same minor version.
		return v.Major == t.v.Major && v.Minor == t.v.Minor && v.Compare(t.v) >= 0
	}
	return false
}

// Constraint selects an acceptable set of versions. The zero Constraint
// (and the spellings "" and "*") matches every version.
type Constraint struct {
	src   string
	terms []constraintOp
}

// ParseConstraint parses a version constraint: "*" or "" (any), an exact
// version ("1.2.0", "=1.2"), a caret range ("^1.2": same major, at least
// 1.2.0), a tilde range ("~1.2": same minor, at least 1.2.0), a comparison
// (">=1.0", ">1", "<=2", "<2.1"), or a space-separated conjunction of
// comparisons (">=1.0 <2.0").
func ParseConstraint(s string) (Constraint, error) {
	src := strings.TrimSpace(s)
	if src == "" || src == "*" {
		return Constraint{src: "*"}, nil
	}
	c := Constraint{src: src}
	for _, field := range strings.Fields(src) {
		op := ""
		for _, p := range []string{">=", "<=", "==", ">", "<", "^", "~", "="} {
			if strings.HasPrefix(field, p) {
				op = p
				field = field[len(p):]
				break
			}
		}
		v, err := ParseVersion(field)
		if err != nil {
			return Constraint{}, fmt.Errorf("%w: constraint %q", ErrBadVersion, src)
		}
		c.terms = append(c.terms, constraintOp{op: op, v: v})
	}
	return c, nil
}

// String returns the constraint as written ("*" for the any-version form).
func (c Constraint) String() string {
	if c.src == "" {
		return "*"
	}
	return c.src
}

// Match reports whether v satisfies every term of the constraint.
func (c Constraint) Match(v Version) bool {
	for _, t := range c.terms {
		if !t.match(v) {
			return false
		}
	}
	return true
}
