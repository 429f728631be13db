package transport

import (
	"fmt"
	"strings"
	"sync"
)

// defaultInProc backs inproc:// addresses resolved through ForScheme, so
// two components in the same process that only share an address string
// still land on the same listener table.
var (
	defaultInProcOnce sync.Once
	defaultInProc     *InProc
)

// DefaultInProc returns the process-wide InProc instance used by
// ForScheme for inproc:// addresses.
func DefaultInProc() *InProc {
	defaultInProcOnce.Do(func() { defaultInProc = &InProc{} })
	return defaultInProc
}

// Scheme returns the scheme ForScheme would resolve addr under: the part
// before "://", or "tcp" for a bare address. Listeners report bare bound
// addresses; Scheme(spec)+"://"+l.Addr() is the dialable form.
func Scheme(addr string) string {
	if scheme, _, ok := strings.Cut(addr, "://"); ok {
		return scheme
	}
	return "tcp"
}

// ForScheme resolves an address of the form scheme://rest to a transport
// and the backend-native address to pass to its Listen/Dial:
//
//	tcp://host:port   -> TCP{}, "host:port"
//	shm:///run/x      -> SHM{}, "/run/x"  (directory; unix only)
//	inproc://name     -> DefaultInProc(), "name"
//
// A bare "host:port" with no scheme resolves to TCP for compatibility
// with addresses printed by older tooling.
func ForScheme(addr string) (Transport, string, error) {
	scheme, rest, ok := strings.Cut(addr, "://")
	if !ok {
		return TCP{}, addr, nil
	}
	switch scheme {
	case "tcp":
		return TCP{}, rest, nil
	case "shm":
		return SHM{}, rest, nil
	case "inproc":
		return DefaultInProc(), rest, nil
	default:
		return nil, "", fmt.Errorf("transport: unknown scheme %q in %q", scheme, addr)
	}
}
