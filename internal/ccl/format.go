package ccl

import (
	"fmt"
	"strings"
)

// Format renders a document in canonical form: header, app, repository,
// components, remotes, exports, connects, each in declaration order, keys
// in grammar order, two-space indentation, one blank line between
// stanzas. Parse(Format(d)) reproduces d (modulo comments and variable
// interpolations, which formatting flattens), which is what the parser's
// fuzz target checks.
func Format(d *Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ccl %d\n", d.Version)

	if d.Name != "" || d.Description != "" {
		fmt.Fprintf(&b, "\napp %s {\n", d.Name)
		if d.Description != "" {
			fmt.Fprintf(&b, "  description %s\n", quote(d.Description))
		}
		b.WriteString("}\n")
	}
	if d.Repository != nil {
		b.WriteString("\nrepository {\n")
		if d.Repository.Address != "" {
			fmt.Fprintf(&b, "  address %s\n", quote(d.Repository.Address))
		}
		b.WriteString("}\n")
	}
	for _, c := range d.Components {
		fmt.Fprintf(&b, "\ncomponent %s {\n", c.Name)
		if c.Type != "" {
			fmt.Fprintf(&b, "  type %s\n", maybeQuote(c.Type))
		}
		if c.Constraint != "" {
			fmt.Fprintf(&b, "  version %s\n", c.Constraint)
		}
		if c.Provider != "" {
			fmt.Fprintf(&b, "  provider %s\n", maybeQuote(c.Provider))
		}
		if len(c.Config) > 0 {
			b.WriteString("  config {\n")
			for _, kv := range c.Config {
				fmt.Fprintf(&b, "    %s %s\n", kv.Key, maybeQuote(kv.Value))
			}
			b.WriteString("  }\n")
		}
		b.WriteString("}\n")
	}
	for _, r := range d.Remotes {
		fmt.Fprintf(&b, "\nremote %s {\n", r.Name)
		fmt.Fprintf(&b, "  address %s\n", quote(r.Address))
		if r.Key != "" {
			fmt.Fprintf(&b, "  key %s\n", maybeQuote(r.Key))
		}
		if r.Port != "" {
			fmt.Fprintf(&b, "  port %s\n", maybeQuote(r.Port))
		}
		if r.Type != "" {
			fmt.Fprintf(&b, "  type %s\n", maybeQuote(r.Type))
		}
		if dd := r.Dist; dd != nil {
			b.WriteString("  dist {\n")
			fmt.Fprintf(&b, "    map %s\n", dd.Map)
			fmt.Fprintf(&b, "    length %d\n", dd.Length)
			fmt.Fprintf(&b, "    ranks %d\n", dd.Ranks)
			if dd.Block != 0 {
				fmt.Fprintf(&b, "    block %d\n", dd.Block)
			}
			b.WriteString("  }\n")
		}
		if s := r.Supervise; s != nil {
			b.WriteString("  supervise {\n")
			if s.Retries != 0 {
				fmt.Fprintf(&b, "    retries %d\n", s.Retries)
			}
			if s.Breaker != 0 {
				fmt.Fprintf(&b, "    breaker %d\n", s.Breaker)
			}
			if s.Timeout != 0 {
				fmt.Fprintf(&b, "    timeout %s\n", s.Timeout)
			}
			if s.Heartbeat != 0 {
				fmt.Fprintf(&b, "    heartbeat %s\n", s.Heartbeat)
			}
			b.WriteString("  }\n")
		}
		b.WriteString("}\n")
	}
	for _, e := range d.Exports {
		fmt.Fprintf(&b, "\nexport %s.%s {\n", e.Instance, e.Port)
		if e.Address != "" {
			fmt.Fprintf(&b, "  address %s\n", quote(e.Address))
		}
		b.WriteString("}\n")
	}
	if len(d.Connects) > 0 {
		b.WriteString("\n")
		for _, c := range d.Connects {
			fmt.Fprintf(&b, "connect %s.%s -> %s.%s\n", c.User, c.UsesPort, c.Provider, c.ProvidesPort)
		}
	}
	return b.String()
}

// quote renders a value as a quoted string.
func quote(s string) string {
	r := strings.NewReplacer("\\", "\\\\", "\"", "\\\"", "\n", "\\n", "\t", "\\t", "$", "\\$")
	return "\"" + r.Replace(s) + "\""
}

// maybeQuote renders bare when the value lexes as a single bare word.
func maybeQuote(s string) string {
	if s == "" {
		return quote(s)
	}
	for _, r := range s {
		if !isBare(r) {
			return quote(s)
		}
	}
	if strings.Contains(s, "->") || s == "{" || s == "}" {
		return quote(s)
	}
	return s
}
