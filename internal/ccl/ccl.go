package ccl

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// LanguageVersion is the ccl header version this package reads and writes.
const LanguageVersion = 1

// Typed error classes. Every diagnostic the parser, validator, resolver,
// and compiler produce wraps exactly one of these, so callers (and the
// errors appendix of docs/CCL.md) can dispatch on errors.Is. Parse and
// validation errors additionally carry a "path:line:" position prefix.
var (
	// ErrHeader reports a missing or unsupported `ccl N` header line.
	ErrHeader = errors.New("ccl: missing or unsupported header")
	// ErrSyntax reports a lexical or grammatical problem in the document.
	ErrSyntax = errors.New("ccl: syntax error")
	// ErrUnknownStanza reports a stanza keyword the grammar does not know.
	ErrUnknownStanza = errors.New("ccl: unknown stanza")
	// ErrUnknownKey reports a setting key not accepted in its stanza.
	ErrUnknownKey = errors.New("ccl: unknown key")
	// ErrBadValue reports a value of the wrong shape (not a number, not a
	// duration, not in the keyword's vocabulary, conflicting keys, ...).
	ErrBadValue = errors.New("ccl: bad value")
	// ErrDuplicate reports a name or key declared twice.
	ErrDuplicate = errors.New("ccl: duplicate declaration")
	// ErrMissingKey reports a stanza missing a required key.
	ErrMissingKey = errors.New("ccl: missing required key")
	// ErrUndefined reports a connect or export referencing an instance the
	// document never declares.
	ErrUndefined = errors.New("ccl: undefined instance")
	// ErrUnknownVar reports a ${NAME} interpolation with no binding.
	ErrUnknownVar = errors.New("ccl: unknown variable")
	// ErrUnknownProvider reports a `provider` name no provider table knows.
	ErrUnknownProvider = errors.New("ccl: unknown provider")
	// ErrLockMismatch reports a lockfile that disagrees with the current
	// resolution (delete the lockfile to re-lock, or pin the constraint).
	ErrLockMismatch = errors.New("ccl: lockfile does not match resolution")
)

// Document is a parsed assembly: the AST the validator checks and the
// compiler lowers onto the repository Builder and the cca framework.
// Stanza slices preserve declaration order; the compiler instantiates and
// wires in that order.
type Document struct {
	// Path is the source path, used in error positions ("" = "<ccl>").
	Path string
	// Version is the `ccl N` header version.
	Version int
	// Name and Description come from the app stanza.
	Name        string
	Description string
	// Repository is the optional networked component repository; nil means
	// every typed component resolves against the local repository.
	Repository *RepositoryDecl
	Components []*ComponentDecl
	Remotes    []*RemoteDecl
	Exports    []*ExportDecl
	Connects   []*ConnectDecl
}

// RepositoryDecl names the networked repository the document resolves
// typed components from.
type RepositoryDecl struct {
	// Address is a scheme-qualified ORB address (tcp://host:port or
	// shm:///dir).
	Address string
	Line    int
}

// ComponentDecl declares one local component instance, either resolved
// from a repository by type name and version constraint, or built by a
// named provider (for implementations whose constructors need arguments a
// deposited factory cannot supply — factories never serialize).
type ComponentDecl struct {
	Name string
	// Type is the repository component type name; exclusive with Provider.
	Type string
	// Constraint is the version constraint ("" = any version).
	Constraint string
	// Provider is a provider-table name; exclusive with Type.
	Provider string
	// Config is the component's configuration block, applied after
	// instantiation (typed components) or passed to the provider.
	Config Config
	Line   int
}

// RemoteDecl declares a proxy component for a port served by another OS
// process: a supervised scalar remote port, or — with a dist block — an
// attachment to a remote cohort's collective DistArray port.
type RemoteDecl struct {
	Name string
	// Address is the remote server's address, optionally scheme-qualified
	// (tcp:// or shm://; bare addresses mean tcp).
	Address string
	// Key is the exported object key (scalar) or published array name
	// (dist).
	Key string
	// Port is the provides-port name the proxy registers locally
	// (default "A" scalar, "data" dist).
	Port string
	// Type is the scalar port's SIDL type (default esi.MatrixData). A dist
	// remote always provides the collective pull type.
	Type      string
	Dist      *DistDecl
	Supervise *SuperviseDecl
	Line      int
}

// DistDecl describes the consumer-side data distribution of a collective
// attachment: how the remote global array lands in local ranks.
type DistDecl struct {
	// Map is "block" or "cyclic".
	Map string
	// Length is the global element count.
	Length int
	// Ranks is the consumer cohort size.
	Ranks int
	// Block is the cyclic block size (required for map cyclic).
	Block int
	Line  int
}

// SuperviseDecl tunes the self-healing connection under a remote proxy.
// Zero fields keep the compiler's defaults.
type SuperviseDecl struct {
	// Retries is the per-call attempt budget for idempotent methods.
	Retries int
	// Breaker is the consecutive-failed-redial threshold that opens the
	// circuit.
	Breaker int
	// Timeout bounds the initial dial.
	Timeout time.Duration
	// Heartbeat probes an idle connection after this long (0 = off).
	Heartbeat time.Duration
	Line      int
}

// ExportDecl publishes a local instance's provides port over the ORB for
// other processes to dial.
type ExportDecl struct {
	Instance string
	Port     string
	// Address is the scheme-qualified listen address
	// (default tcp://127.0.0.1:0).
	Address string
	Line    int
}

// ConnectDecl wires user.usesPort to provider.providesPort.
type ConnectDecl struct {
	User, UsesPort         string
	Provider, ProvidesPort string
	Line                   int
}

// KV is one configuration setting.
type KV struct {
	Key, Value string
	Line       int
}

// Config is an ordered configuration block. Order is preserved so the
// formatter round-trips and providers may treat later keys as overrides.
type Config []KV

// Get returns the last value set for key.
func (c Config) Get(key string) (string, bool) {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i].Key == key {
			return c[i].Value, true
		}
	}
	return "", false
}

// Int reads an integer key, returning def when absent.
func (c Config) Int(key string, def int) (int, error) {
	s, ok := c.Get(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %s = %q is not an integer", ErrBadValue, key, s)
	}
	return n, nil
}

// Float reads a float key, returning def when absent.
func (c Config) Float(key string, def float64) (float64, error) {
	s, ok := c.Get(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s = %q is not a number", ErrBadValue, key, s)
	}
	return v, nil
}

// pos renders an error position.
func (d *Document) pos(line int) string {
	p := d.Path
	if p == "" {
		p = "<ccl>"
	}
	return fmt.Sprintf("%s:%d", p, line)
}
