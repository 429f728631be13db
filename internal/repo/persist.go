package repo

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cca"
)

// Persistence: a repository's descriptions (not its factories — code cannot
// be serialized) can be saved to and reloaded from JSON. This realizes the
// paper's repository as a durable artifact: interface definitions and
// component metadata are deposited once and shared across teams, with each
// site re-binding factories for the implementations it has ("the
// functionality necessary to search a framework repository for components
// as well as to manipulate components within the repository").

// persistedEntry is the serializable subset of Entry.
type persistedEntry struct {
	Name        string     `json:"name"`
	Version     string     `json:"version,omitempty"`
	Description string     `json:"description,omitempty"`
	SIDL        string     `json:"sidl,omitempty"`
	Provides    []PortSpec `json:"provides,omitempty"`
	Uses        []PortSpec `json:"uses,omitempty"`
	Flavor      string     `json:"flavor,omitempty"`
	HasFactory  bool       `json:"hasFactory,omitempty"`
}

type persistedRepo struct {
	FormatVersion int              `json:"formatVersion"`
	Entries       []persistedEntry `json:"entries"`
}

// toPersisted strips an entry down to its serializable subset.
func toPersisted(e *Entry) persistedEntry {
	return persistedEntry{
		Name:        e.Name,
		Version:     e.Version,
		Description: e.Description,
		SIDL:        e.SIDL,
		Provides:    e.Provides,
		Uses:        e.Uses,
		Flavor:      e.Flavor.String(),
		HasFactory:  e.Factory != nil,
	}
}

// fromPersisted reconstructs an Entry (factory-less; callers re-bind
// factories for implementations they hold locally).
func fromPersisted(pe persistedEntry) (*Entry, error) {
	if pe.Name == "" {
		return nil, fmt.Errorf("%w: unnamed entry", ErrBadEntry)
	}
	flavor, err := cca.ParseFlavor(pe.Flavor)
	if err != nil {
		return nil, fmt.Errorf("%w: entry %s: %w", ErrBadEntry, pe.Name, err)
	}
	return &Entry{
		Name:        pe.Name,
		Version:     pe.Version,
		Description: pe.Description,
		SIDL:        pe.SIDL,
		Provides:    pe.Provides,
		Uses:        pe.Uses,
		Flavor:      flavor,
	}, nil
}

// EncodeEntry marshals one entry in the persisted JSON form — the unit the
// repository's wire protocol (Bind) ships over the ORB. Factories are
// recorded only as a HasFactory marker; code does not serialize.
func EncodeEntry(e *Entry) ([]byte, error) {
	return json.Marshal(toPersisted(e))
}

// DecodeEntry unmarshals an entry produced by EncodeEntry. The result has
// no factory; bind one with Repository.BindFactory (or instantiate through
// a ccl provider) for implementations available locally.
func DecodeEntry(data []byte) (*Entry, error) {
	var pe persistedEntry
	if err := json.Unmarshal(data, &pe); err != nil {
		return nil, fmt.Errorf("%w: decode entry: %w", ErrBadEntry, err)
	}
	return fromPersisted(pe)
}

// Save writes every deposited version as JSON, sorted by name then
// version. Factories are recorded only as a HasFactory marker.
func (r *Repository) Save(w io.Writer) error {
	out := persistedRepo{FormatVersion: 1}
	for _, e := range r.all() {
		out.Entries = append(out.Entries, toPersisted(e))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load deposits every entry from a stream produced by Save as one
// DepositAll batch: atomic, with all SIDL sources merged before any port
// type validates, so saved entries may reference interfaces other entries
// define. Factories are not restored: callers re-bind them afterwards with
// BindFactory for the component types they can instantiate locally.
func (r *Repository) Load(src io.Reader) error {
	var in persistedRepo
	if err := json.NewDecoder(src).Decode(&in); err != nil {
		return fmt.Errorf("repo: load: %w", err)
	}
	if in.FormatVersion != 1 {
		return fmt.Errorf("%w: unsupported format version %d", ErrBadEntry, in.FormatVersion)
	}
	batch := make([]Entry, 0, len(in.Entries))
	for _, pe := range in.Entries {
		e, err := fromPersisted(pe)
		if err != nil {
			return err
		}
		batch = append(batch, *e)
	}
	return r.DepositAll(batch)
}

// BindFactory attaches (or replaces) the instantiation factory of a name's
// newest version — the step a site performs after Load for the component
// implementations it actually has. The stored entry is replaced by a copy
// carrying the factory, never written in place, so an Instantiate holding
// the old entry is unaffected.
func (r *Repository) BindFactory(name string, factory func() cca.Component) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := r.entries[name]
	if len(have) == 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e := *have[len(have)-1].e
	e.Factory = factory
	have[len(have)-1].e = &e
	return nil
}
