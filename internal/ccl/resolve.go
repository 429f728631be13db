package ccl

import (
	"fmt"

	"repro/internal/repo"
)

// Source is where typed components resolve from: the application
// container's own *repo.Repository, or a networked repository's
// *repo.Client.
type Source interface {
	// Resolve returns the best deposited version of name satisfying the
	// constraint.
	Resolve(name, constraint string) (*repo.Entry, repo.Version, error)
	// Revision reports the store revision the resolutions come from.
	Revision() (int64, error)
}

var (
	_ Source = (*repo.Repository)(nil)
	_ Source = (*repo.Client)(nil)
)

// Resolution is one typed component's resolved (version, entry), the unit
// the lockfile records.
type Resolution struct {
	Instance   string
	Type       string
	Constraint string
	Version    repo.Version
	Entry      *repo.Entry
	// Source is "local" or "repository" — which kind of store resolved
	// it. Addresses are deliberately not recorded: a lockfile must verify
	// identically whatever port the repository happens to listen on.
	Source string
}

// ResolveComponents resolves every typed component of the document, in
// declaration order, against src. Provider components need no resolution
// and are skipped. sourceName is the Resolution.Source tag ("local" or
// "repository").
func ResolveComponents(d *Document, src Source, sourceName string) ([]Resolution, int64, error) {
	rev, err := src.Revision()
	if err != nil {
		return nil, 0, fmt.Errorf("ccl: repository head: %w", err)
	}
	var out []Resolution
	for _, c := range d.Components {
		if c.Type == "" {
			continue
		}
		e, v, err := src.Resolve(c.Type, c.Constraint)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: resolving %s (%s): %w", d.pos(c.Line), c.Name, c.Type, err)
		}
		out = append(out, Resolution{
			Instance:   c.Name,
			Type:       c.Type,
			Constraint: c.Constraint,
			Version:    v,
			Entry:      e,
			Source:     sourceName,
		})
	}
	return out, rev, nil
}
