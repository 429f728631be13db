package ccl

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// ParseOptions configures Parse.
type ParseOptions struct {
	// Path is recorded in the document and used in error positions.
	Path string
	// Vars binds ${NAME} interpolations. Missing names are ErrUnknownVar.
	Vars map[string]string
}

// Load reads, parses, and validates an assembly file.
func Load(path string, vars map[string]string) (*Document, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := Parse(string(src), ParseOptions{Path: path, Vars: vars})
	if err != nil {
		return nil, err
	}
	if err := Validate(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Parse parses a ccl source into a Document. Parse checks grammar and
// value shapes (numbers, durations); cross-cutting rules (required keys,
// duplicate instances, dangling connects) are Validate's job.
func Parse(src string, opts ParseOptions) (*Document, error) {
	p := &parser{
		doc:  &Document{Path: opts.Path},
		vars: opts.Vars,
	}
	for n, raw := range strings.Split(src, "\n") {
		if err := p.line(n+1, raw); err != nil {
			return nil, err
		}
	}
	if len(p.stack) > 0 {
		return nil, fmt.Errorf("%s: %w: unclosed %q stanza", p.doc.pos(p.openLine), ErrSyntax, p.stack[len(p.stack)-1])
	}
	if !p.sawHeader {
		return nil, fmt.Errorf("%s: %w: want `ccl %d` as the first statement", p.doc.pos(1), ErrHeader, LanguageVersion)
	}
	return p.doc, nil
}

type parser struct {
	doc       *Document
	vars      map[string]string
	sawHeader bool
	// stack holds the open stanza context, e.g. ["component"] or
	// ["remote", "supervise"].
	stack    []string
	openLine int

	curComponent *ComponentDecl
	curRemote    *RemoteDecl
	curExport    *ExportDecl
}

func (p *parser) errf(line int, base error, format string, args ...any) error {
	return fmt.Errorf("%s: %w: %s", p.doc.pos(line), base, fmt.Sprintf(format, args...))
}

// line consumes one source line.
func (p *parser) line(n int, raw string) error {
	toks, err := splitLine(p.doc.pos(n), raw, p.vars)
	if err != nil {
		return err
	}
	if len(toks) == 0 {
		return nil
	}
	if !p.sawHeader {
		if len(toks) != 2 || toks[0].text != "ccl" || toks[0].quoted {
			return p.errf(n, ErrHeader, "want `ccl %d` as the first statement", LanguageVersion)
		}
		v, err := strconv.Atoi(toks[1].text)
		if err != nil || v != LanguageVersion {
			return p.errf(n, ErrHeader, "unsupported language version %q (this parser reads %d)", toks[1].text, LanguageVersion)
		}
		p.doc.Version = v
		p.sawHeader = true
		return nil
	}

	// Stanza close.
	if toks[0].text == "}" && !toks[0].quoted {
		if len(toks) != 1 {
			return p.errf(n, ErrSyntax, "`}` must stand alone")
		}
		if len(p.stack) == 0 {
			return p.errf(n, ErrSyntax, "unmatched `}`")
		}
		p.stack = p.stack[:len(p.stack)-1]
		if len(p.stack) == 0 {
			p.curComponent, p.curRemote, p.curExport = nil, nil, nil
		}
		return nil
	}

	// Stanza open: last token is `{`.
	if last := toks[len(toks)-1]; last.text == "{" && !last.quoted {
		return p.open(n, toks[:len(toks)-1])
	}

	// Statement.
	if toks[0].quoted {
		return p.errf(n, ErrSyntax, "setting key must be a bare word, got string %q", toks[0].text)
	}
	switch p.context() {
	case "":
		if toks[0].text == "connect" && !toks[0].quoted {
			return p.connect(n, toks)
		}
		return p.errf(n, ErrSyntax, "expected a stanza or `connect` at top level, got %q", toks[0].text)
	case "app":
		return p.appKey(n, toks)
	case "repository":
		return p.repositoryKey(n, toks)
	case "component":
		return p.componentKey(n, toks)
	case "component/config":
		return p.configKey(n, toks)
	case "remote":
		return p.remoteKey(n, toks)
	case "remote/dist":
		return p.distKey(n, toks)
	case "remote/supervise":
		return p.superviseKey(n, toks)
	case "export":
		return p.exportKey(n, toks)
	default:
		return p.errf(n, ErrSyntax, "statement in unexpected context %q", p.context())
	}
}

func (p *parser) context() string {
	return strings.Join(p.stack, "/")
}

// open handles a stanza-open line (tokens before the trailing `{`).
func (p *parser) open(n int, toks []token) error {
	if len(toks) == 0 {
		return p.errf(n, ErrSyntax, "`{` needs a stanza keyword")
	}
	kw := toks[0].text
	if toks[0].quoted {
		return p.errf(n, ErrSyntax, "stanza keyword must be bare, got string %q", kw)
	}
	name := ""
	if len(toks) == 2 {
		if toks[1].quoted {
			return p.errf(n, ErrSyntax, "stanza name must be a bare word, got string %q", toks[1].text)
		}
		name = toks[1].text
	} else if len(toks) > 2 {
		return p.errf(n, ErrSyntax, "stanza `%s` takes at most one name before `{`", kw)
	}
	switch p.context() {
	case "":
		switch kw {
		case "app":
			if name == "" {
				return p.errf(n, ErrMissingKey, "app stanza needs a name: `app NAME {`")
			}
			if p.doc.Name != "" {
				return p.errf(n, ErrDuplicate, "second app stanza (first named %q)", p.doc.Name)
			}
			p.doc.Name = name
		case "repository":
			if name != "" {
				return p.errf(n, ErrSyntax, "repository stanza takes no name")
			}
			if p.doc.Repository != nil {
				return p.errf(n, ErrDuplicate, "second repository stanza (line %d has the first)", p.doc.Repository.Line)
			}
			p.doc.Repository = &RepositoryDecl{Line: n}
		case "component":
			if name == "" {
				return p.errf(n, ErrMissingKey, "component stanza needs an instance name: `component NAME {`")
			}
			p.curComponent = &ComponentDecl{Name: name, Line: n}
			p.doc.Components = append(p.doc.Components, p.curComponent)
		case "remote":
			if name == "" {
				return p.errf(n, ErrMissingKey, "remote stanza needs an instance name: `remote NAME {`")
			}
			p.curRemote = &RemoteDecl{Name: name, Line: n}
			p.doc.Remotes = append(p.doc.Remotes, p.curRemote)
		case "export":
			inst, port, ok := cutEndpoint(name)
			if name == "" || !ok {
				return p.errf(n, ErrSyntax, "export stanza needs INSTANCE.PORT: `export solver.A {`")
			}
			p.curExport = &ExportDecl{Instance: inst, Port: port, Line: n}
			p.doc.Exports = append(p.doc.Exports, p.curExport)
		default:
			return p.errf(n, ErrUnknownStanza, "%q (top-level stanzas: app, repository, component, remote, export)", kw)
		}
	case "component":
		if kw != "config" || name != "" {
			return p.errf(n, ErrUnknownStanza, "%q inside component (only `config {` nests here)", kw)
		}
	case "remote":
		switch kw {
		case "dist":
			if p.curRemote.Dist != nil {
				return p.errf(n, ErrDuplicate, "second dist block")
			}
			p.curRemote.Dist = &DistDecl{Line: n}
		case "supervise":
			if p.curRemote.Supervise != nil {
				return p.errf(n, ErrDuplicate, "second supervise block")
			}
			p.curRemote.Supervise = &SuperviseDecl{Line: n}
		default:
			return p.errf(n, ErrUnknownStanza, "%q inside remote (only `dist {` and `supervise {` nest here)", kw)
		}
		if name != "" {
			return p.errf(n, ErrSyntax, "%s block takes no name", kw)
		}
	default:
		return p.errf(n, ErrUnknownStanza, "%q cannot nest inside %s", kw, p.context())
	}
	p.stack = append(p.stack, kw)
	p.openLine = n
	return nil
}

// value enforces a `key value` statement shape and returns the value.
func (p *parser) value(n int, toks []token) (string, error) {
	if len(toks) != 2 {
		return "", p.errf(n, ErrSyntax, "`%s` takes exactly one value", toks[0].text)
	}
	return toks[1].text, nil
}

// intValue parses a `key N` statement.
func (p *parser) intValue(n int, toks []token) (int, error) {
	s, err := p.value(n, toks)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, p.errf(n, ErrBadValue, "%s = %q is not an integer", toks[0].text, s)
	}
	return v, nil
}

// durValue parses a `key DURATION` statement (Go duration syntax: 5s,
// 200ms, 1m30s).
func (p *parser) durValue(n int, toks []token) (time.Duration, error) {
	s, err := p.value(n, toks)
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, p.errf(n, ErrBadValue, "%s = %q is not a duration (use 5s, 200ms, ...)", toks[0].text, s)
	}
	return d, nil
}

func (p *parser) appKey(n int, toks []token) error {
	switch toks[0].text {
	case "description":
		v, err := p.value(n, toks)
		if err != nil {
			return err
		}
		p.doc.Description = v
		return nil
	default:
		return p.errf(n, ErrUnknownKey, "%q in app (keys: description)", toks[0].text)
	}
}

func (p *parser) repositoryKey(n int, toks []token) error {
	switch toks[0].text {
	case "address":
		v, err := p.value(n, toks)
		if err != nil {
			return err
		}
		p.doc.Repository.Address = v
		return nil
	default:
		return p.errf(n, ErrUnknownKey, "%q in repository (keys: address)", toks[0].text)
	}
}

func (p *parser) componentKey(n int, toks []token) error {
	c := p.curComponent
	switch toks[0].text {
	case "type":
		v, err := p.value(n, toks)
		if err != nil {
			return err
		}
		c.Type = v
		return nil
	case "version":
		// A constraint conjunction has internal spaces (`>=1.2 <2`), so
		// the version key joins its value tokens.
		if len(toks) < 2 {
			return p.errf(n, ErrSyntax, "`version` takes a constraint")
		}
		parts := make([]string, 0, len(toks)-1)
		for _, t := range toks[1:] {
			parts = append(parts, t.text)
		}
		c.Constraint = strings.Join(parts, " ")
		return nil
	case "provider":
		v, err := p.value(n, toks)
		if err != nil {
			return err
		}
		c.Provider = v
		return nil
	default:
		return p.errf(n, ErrUnknownKey, "%q in component (keys: type, version, provider, config)", toks[0].text)
	}
}

func (p *parser) configKey(n int, toks []token) error {
	v, err := p.value(n, toks)
	if err != nil {
		return err
	}
	p.curComponent.Config = append(p.curComponent.Config, KV{Key: toks[0].text, Value: v, Line: n})
	return nil
}

func (p *parser) remoteKey(n int, toks []token) error {
	r := p.curRemote
	v, err := p.value(n, toks)
	if err != nil {
		return err
	}
	switch toks[0].text {
	case "address":
		r.Address = v
	case "key":
		r.Key = v
	case "port":
		r.Port = v
	case "type":
		r.Type = v
	default:
		return p.errf(n, ErrUnknownKey, "%q in remote (keys: address, key, port, type, dist, supervise)", toks[0].text)
	}
	return nil
}

func (p *parser) distKey(n int, toks []token) error {
	d := p.curRemote.Dist
	switch toks[0].text {
	case "map":
		v, err := p.value(n, toks)
		if err != nil {
			return err
		}
		d.Map = v
		return nil
	case "length", "ranks", "block":
		v, err := p.intValue(n, toks)
		if err != nil {
			return err
		}
		switch toks[0].text {
		case "length":
			d.Length = v
		case "ranks":
			d.Ranks = v
		case "block":
			d.Block = v
		}
		return nil
	default:
		return p.errf(n, ErrUnknownKey, "%q in dist (keys: map, length, ranks, block)", toks[0].text)
	}
}

func (p *parser) superviseKey(n int, toks []token) error {
	s := p.curRemote.Supervise
	switch toks[0].text {
	case "retries", "breaker":
		v, err := p.intValue(n, toks)
		if err != nil {
			return err
		}
		if v < 0 {
			return p.errf(n, ErrBadValue, "%s = %d is negative", toks[0].text, v)
		}
		if toks[0].text == "retries" {
			s.Retries = v
		} else {
			s.Breaker = v
		}
		return nil
	case "timeout", "heartbeat":
		d, err := p.durValue(n, toks)
		if err != nil {
			return err
		}
		if toks[0].text == "timeout" {
			s.Timeout = d
		} else {
			s.Heartbeat = d
		}
		return nil
	default:
		return p.errf(n, ErrUnknownKey, "%q in supervise (keys: retries, breaker, timeout, heartbeat)", toks[0].text)
	}
}

func (p *parser) exportKey(n int, toks []token) error {
	e := p.curExport
	switch toks[0].text {
	case "address":
		v, err := p.value(n, toks)
		if err != nil {
			return err
		}
		e.Address = v
		return nil
	default:
		return p.errf(n, ErrUnknownKey, "%q in export (keys: address)", toks[0].text)
	}
}

// connect parses `connect USER.USES -> PROVIDER.PROVIDES`.
func (p *parser) connect(n int, toks []token) error {
	if len(toks) != 4 || toks[2].text != "->" || toks[2].quoted {
		return p.errf(n, ErrSyntax, "want `connect USER.USES -> PROVIDER.PROVIDES`")
	}
	if toks[1].quoted || toks[3].quoted {
		return p.errf(n, ErrSyntax, "connect endpoints must be bare words")
	}
	user, uses, ok1 := cutEndpoint(toks[1].text)
	prov, provides, ok2 := cutEndpoint(toks[3].text)
	if !ok1 || !ok2 {
		return p.errf(n, ErrSyntax, "connect endpoints must be INSTANCE.PORT")
	}
	p.doc.Connects = append(p.doc.Connects, &ConnectDecl{
		User: user, UsesPort: uses, Provider: prov, ProvidesPort: provides, Line: n,
	})
	return nil
}

// cutEndpoint splits INSTANCE.PORT at the first dot (instance names must
// not contain dots; port names may).
func cutEndpoint(s string) (instance, port string, ok bool) {
	instance, port, ok = strings.Cut(s, ".")
	if !ok || instance == "" || port == "" {
		return "", "", false
	}
	return instance, port, true
}
