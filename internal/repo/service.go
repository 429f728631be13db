package repo

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/orb"
)

// ServiceKey is the reserved object key a bound repository answers on.
const ServiceKey = "cca/repo"

// ErrBadCall reports a wire call the protocol does not define: an unknown
// method, a oneway invocation, or a missing or mistyped argument.
var ErrBadCall = errors.New("repo: malformed call")

// Bind registers the repository's wire protocol on an object adapter under
// ServiceKey; `ccarepo serve` binds the store it seeded, so remote clients
// and in-process callers see one store. The protocol is five methods, all
// strings and int64s over the ordinary CDR surface:
//
//	head()                          -> (revision)
//	list()                          -> (revision, listingsJSON)
//	describe()                      -> (text)
//	fetch(name, constraint, etag)   -> (revision, version, entryJSON)
//	deposit(entryJSON)              -> (revision)
//
// fetch resolves the constraint server-side; when the resolved version
// equals the caller's etag the body comes back empty ("not modified"), so
// revalidating a warm cache costs one small round trip. deposit returns
// the post-deposit revision.
func (r *Repository) Bind(oa *orb.ObjectAdapter) {
	oa.Handle(ServiceKey, r.handle)
}

func (r *Repository) handle(method string, args []any, reply *orb.Encoder) error {
	if reply == nil {
		return fmt.Errorf("%w: %q is not oneway", ErrBadCall, method)
	}
	argStr := func(i int) (string, error) {
		if i >= len(args) {
			return "", fmt.Errorf("%w: %s: missing argument %d", ErrBadCall, method, i)
		}
		v, ok := args[i].(string)
		if !ok {
			return "", fmt.Errorf("%w: %s: argument %d is %T, want string", ErrBadCall, method, i, args[i])
		}
		return v, nil
	}
	rev, _ := r.Revision()
	switch method {
	case "head":
		return reply.Encode(rev)
	case "list":
		body, err := json.Marshal(r.List())
		if err != nil {
			return err
		}
		if err := reply.Encode(rev); err != nil {
			return err
		}
		return reply.Encode(string(body))
	case "describe":
		return reply.Encode(r.Describe())
	case "fetch":
		name, err := argStr(0)
		if err != nil {
			return err
		}
		constraint, err := argStr(1)
		if err != nil {
			return err
		}
		etag, err := argStr(2)
		if err != nil {
			return err
		}
		// rev was read before resolving: a deposit landing in between
		// tags the resolution older than it is, never newer.
		e, v, err := r.Resolve(name, constraint)
		if err != nil {
			return err
		}
		body := ""
		if v.String() != etag {
			raw, err := EncodeEntry(e)
			if err != nil {
				return err
			}
			body = string(raw)
		}
		if err := reply.Encode(rev); err != nil {
			return err
		}
		if err := reply.Encode(v.String()); err != nil {
			return err
		}
		return reply.Encode(body)
	case "deposit":
		raw, err := argStr(0)
		if err != nil {
			return err
		}
		e, err := DecodeEntry([]byte(raw))
		if err != nil {
			return err
		}
		if err := r.Deposit(*e); err != nil {
			return err
		}
		rev, _ = r.Revision()
		return reply.Encode(rev)
	default:
		return fmt.Errorf("%w: no method %q", ErrBadCall, method)
	}
}
