package orb

import "repro/internal/transport"

// DialAddr connects to a scheme-qualified address — tcp://host:port,
// shm:///dir, inproc://name, or a bare host:port (tcp) — so deployment
// tooling can move a component between backends by editing a string
// instead of code (transport.ForScheme documents the grammar).
func DialAddr(addr string) (*Client, error) {
	tr, rest, err := transport.ForScheme(addr)
	if err != nil {
		return nil, err
	}
	return DialClient(tr, rest)
}

// ListenAddr opens a listener on a scheme-qualified address; pass the
// result to Serve.
func ListenAddr(addr string) (transport.Listener, error) {
	tr, rest, err := transport.ForScheme(addr)
	if err != nil {
		return nil, err
	}
	return tr.Listen(rest)
}
