package ccl

import (
	"fmt"
	"strings"
)

// The lexer is line-oriented: a ccl document is a sequence of lines, each
// holding at most one statement (a header, a stanza open, a `}`, a
// setting, or a connect). splitLine turns one line into tokens.
//
// Token shapes:
//
//   - bare words: letters, digits, and . _ + : / - (so type names like
//     esi.SolverComponent.bicgstab, constraints like >=1.2, durations like
//     200ms, and addresses lex as single tokens)
//   - quoted strings: "..." with \" \\ \n \t escapes; ${NAME} interpolates
//     a variable (quoted strings are the only place interpolation happens)
//   - punctuation: { } and the connect arrow ->
//   - # starts a comment running to end of line
type token struct {
	text   string
	quoted bool
}

// isBare reports whether r may appear in a bare word.
func isBare(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return true
	}
	return strings.ContainsRune("._+:/-<>=^~*,", r)
}

// splitLine tokenizes one source line, interpolating ${NAME} inside quoted
// strings from vars.
func splitLine(pos string, line string, vars map[string]string) ([]token, error) {
	var toks []token
	rs := []rune(line)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case r == ' ' || r == '\t' || r == '\r':
			i++
		case r == '#':
			return toks, nil
		case r == '{' || r == '}':
			toks = append(toks, token{text: string(r)})
			i++
		case r == '"':
			text, n, err := lexString(pos, rs[i:], vars)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{text: text, quoted: true})
			i += n
		case isBare(r):
			start := i
			for i < len(rs) && isBare(rs[i]) {
				// `->` terminates a bare word and lexes as the arrow; a
				// lone `-` inside a word ("in-process") does not.
				if rs[i] == '-' && i+1 < len(rs) && rs[i+1] == '>' {
					break
				}
				i++
			}
			if i > start {
				toks = append(toks, token{text: string(rs[start:i])})
			}
			if i < len(rs) && rs[i] == '-' { // the arrow
				toks = append(toks, token{text: "->"})
				i += 2
			}
		default:
			return nil, fmt.Errorf("%s: %w: unexpected character %q", pos, ErrSyntax, string(r))
		}
	}
	return toks, nil
}

// lexString scans a quoted string starting at rs[0] == '"', returning the
// interpolated text and the number of runes consumed.
func lexString(pos string, rs []rune, vars map[string]string) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(rs) {
		r := rs[i]
		switch r {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(rs) {
				return "", 0, fmt.Errorf("%s: %w: trailing backslash in string", pos, ErrSyntax)
			}
			i++
			switch rs[i] {
			case '"':
				b.WriteRune('"')
			case '\\':
				b.WriteRune('\\')
			case 'n':
				b.WriteRune('\n')
			case 't':
				b.WriteRune('\t')
			case '$':
				b.WriteRune('$')
			default:
				return "", 0, fmt.Errorf("%s: %w: unknown escape \\%s", pos, ErrSyntax, string(rs[i]))
			}
			i++
		case '$':
			if i+1 < len(rs) && rs[i+1] == '{' {
				end := -1
				for j := i + 2; j < len(rs); j++ {
					if rs[j] == '}' {
						end = j
						break
					}
				}
				if end < 0 {
					return "", 0, fmt.Errorf("%s: %w: unterminated ${...}", pos, ErrSyntax)
				}
				name := string(rs[i+2 : end])
				v, ok := vars[name]
				if !ok {
					return "", 0, fmt.Errorf("%s: %w: ${%s}", pos, ErrUnknownVar, name)
				}
				b.WriteString(v)
				i = end + 1
				continue
			}
			b.WriteRune('$')
			i++
		default:
			b.WriteRune(r)
			i++
		}
	}
	return "", 0, fmt.Errorf("%s: %w: unterminated string", pos, ErrSyntax)
}
