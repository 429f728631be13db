package ccl

import (
	"fmt"
	"strings"

	ccoll "repro/internal/cca/collective"
	"repro/internal/esi"
	"repro/internal/repo"
)

// Validate checks a parsed document's cross-cutting rules and fills in the
// grammar's defaults (remote port names and port types). It is idempotent;
// Compile calls it again on documents constructed programmatically.
//
// Rules:
//
//   - instance names are unique across components and remotes, contain no
//     dots or slashes, and are not empty
//   - a component declares exactly one of `type` or `provider`; `version`
//     accompanies `type` only, and must parse as a constraint
//   - a remote declares `address` and `key`; a dist block needs map
//     block|cyclic, length > 0, ranks > 0, and block > 0 for cyclic; a
//     dist remote's `type` may only be the collective pull type
//   - exports and connects reference declared instances
func Validate(d *Document) error {
	return validate(d, func(string) bool { return false })
}

// validate is Validate for a document applied to a live assembly: exports
// and connects may also reference the instances live reports.
func validate(d *Document, live func(instance string) bool) error {
	if d.Version != LanguageVersion {
		return fmt.Errorf("%s: %w: document version %d (this compiler reads %d)",
			d.pos(1), ErrHeader, d.Version, LanguageVersion)
	}
	kind := map[string]string{} // instance -> "component" | "remote"
	declare := func(name string, line int, k string) error {
		if name == "" {
			return fmt.Errorf("%s: %w: empty instance name", d.pos(line), ErrBadValue)
		}
		if strings.ContainsAny(name, "./") {
			return fmt.Errorf("%s: %w: instance name %q may not contain '.' or '/'", d.pos(line), ErrBadValue, name)
		}
		if prev, dup := kind[name]; dup {
			return fmt.Errorf("%s: %w: instance %q already declared as a %s", d.pos(line), ErrDuplicate, name, prev)
		}
		kind[name] = k
		return nil
	}

	declared := func(name string) bool {
		_, ok := kind[name]
		return ok || live(name)
	}

	for _, c := range d.Components {
		if err := declare(c.Name, c.Line, "component"); err != nil {
			return err
		}
		switch {
		case c.Type == "" && c.Provider == "":
			return fmt.Errorf("%s: %w: component %q needs `type` or `provider`", d.pos(c.Line), ErrMissingKey, c.Name)
		case c.Type != "" && c.Provider != "":
			return fmt.Errorf("%s: %w: component %q sets both `type` and `provider`", d.pos(c.Line), ErrBadValue, c.Name)
		case c.Provider != "" && c.Constraint != "":
			return fmt.Errorf("%s: %w: component %q: `version` applies to repository types, not providers", d.pos(c.Line), ErrBadValue, c.Name)
		}
		if _, err := repo.ParseConstraint(c.Constraint); err != nil {
			return fmt.Errorf("%s: component %q: %w", d.pos(c.Line), c.Name, err)
		}
	}

	for _, r := range d.Remotes {
		if err := declare(r.Name, r.Line, "remote"); err != nil {
			return err
		}
		if r.Address == "" {
			return fmt.Errorf("%s: %w: remote %q needs `address`", d.pos(r.Line), ErrMissingKey, r.Name)
		}
		if r.Key == "" {
			return fmt.Errorf("%s: %w: remote %q needs `key` (the exported object key or published array name)", d.pos(r.Line), ErrMissingKey, r.Name)
		}
		if dd := r.Dist; dd != nil {
			switch dd.Map {
			case "block":
				if dd.Block != 0 {
					return fmt.Errorf("%s: %w: `block` only applies to map cyclic", d.pos(dd.Line), ErrBadValue)
				}
			case "cyclic":
				if dd.Block <= 0 {
					return fmt.Errorf("%s: %w: map cyclic needs `block` > 0", d.pos(dd.Line), ErrMissingKey)
				}
			case "":
				return fmt.Errorf("%s: %w: dist block needs `map` (block or cyclic)", d.pos(dd.Line), ErrMissingKey)
			default:
				return fmt.Errorf("%s: %w: map %q (want block or cyclic)", d.pos(dd.Line), ErrBadValue, dd.Map)
			}
			if dd.Length <= 0 {
				return fmt.Errorf("%s: %w: dist block needs `length` > 0", d.pos(dd.Line), ErrMissingKey)
			}
			if dd.Ranks <= 0 {
				return fmt.Errorf("%s: %w: dist block needs `ranks` > 0", d.pos(dd.Line), ErrMissingKey)
			}
			if r.Type != "" && r.Type != ccoll.PullPortType {
				return fmt.Errorf("%s: %w: a dist remote provides %q; `type` %q cannot apply", d.pos(r.Line), ErrBadValue, ccoll.PullPortType, r.Type)
			}
			r.Type = ccoll.PullPortType
			if r.Port == "" {
				r.Port = "data"
			}
		} else {
			if r.Type == "" {
				r.Type = esi.TypeMatrixData
			}
			if r.Port == "" {
				r.Port = "A"
			}
		}
	}

	for _, e := range d.Exports {
		if !declared(e.Instance) {
			return fmt.Errorf("%s: %w: export references %q", d.pos(e.Line), ErrUndefined, e.Instance)
		}
		if e.Address == "" {
			e.Address = "tcp://127.0.0.1:0"
		}
	}

	for _, c := range d.Connects {
		if !declared(c.User) {
			return fmt.Errorf("%s: %w: connect user %q", d.pos(c.Line), ErrUndefined, c.User)
		}
		if !declared(c.Provider) {
			return fmt.Errorf("%s: %w: connect provider %q", d.pos(c.Line), ErrUndefined, c.Provider)
		}
	}
	return nil
}
