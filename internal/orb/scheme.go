package orb

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/transport"
)

// DialAddr connects to a scheme-qualified address — tcp://host:port,
// shm:///dir, inproc://name, or a bare host:port (tcp) — so deployment
// tooling can move a component between backends by editing a string
// instead of code (transport.ForScheme documents the grammar). A
// comma-separated list of addresses is a sharded listener group (see
// ServeShards): the dial rendezvous-picks one shard, spreading a fleet of
// clients evenly without any coordination.
func DialAddr(addr string) (*Client, error) {
	tr, rest, err := transport.ForScheme(PickShard(addr))
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

// dialSeq salts each rendezvous pick so successive dials from one process
// spread over the shard list instead of all landing on one winner.
var dialSeq atomic.Uint64

// PickShard resolves a comma-separated shard list to one address by
// rendezvous hashing over a per-dial nonce: each dial scores every shard
// with an FNV-1a hash of (shard, nonce) and takes the highest. Any single
// address (no comma) passes through unchanged. Deterministic per nonce,
// uniform across dials, and stable under list reordering — the properties
// that let every client pick independently yet load the shards evenly.
func PickShard(addr string) string {
	if !strings.Contains(addr, ",") {
		return addr
	}
	nonce := dialSeq.Add(1)
	best, bestScore := "", uint64(0)
	for _, shard := range strings.Split(addr, ",") {
		shard = strings.TrimSpace(shard)
		if shard == "" {
			continue
		}
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		for i := 0; i < len(shard); i++ {
			h = (h ^ uint64(shard[i])) * prime64
		}
		for i := 0; i < 8; i++ {
			h = (h ^ (nonce >> (8 * i) & 0xff)) * prime64
		}
		if best == "" || h > bestScore {
			best, bestScore = shard, h
		}
	}
	return best
}

// ServerPool serves one object adapter from several listeners — the
// connection-sharding layout of the high-fan-out serving tier. Each shard
// is its own Server (own read loops, own accept loop) over the shared
// adapter; Addr returns the comma-separated shard list that
// DialAddr rendezvous-picks from.
type ServerPool struct {
	servers []*Server
	addrs   []string
}

// ServeShards listens on `shards` addresses derived from addr and serves
// oa from each. For a kernel-assigned port (tcp://host:0) every shard
// listens on the same spec and gets its own port; for path- or name-like
// addresses (shm, inproc) shards beyond the first get a "-s<i>" suffix.
// An explicit tcp port cannot be shared — listening fails on the second
// shard, and the error reports which shard.
func ServeShards(oa *ObjectAdapter, addr string, shards int) (*ServerPool, error) {
	if shards < 1 {
		shards = 1
	}
	scheme := ""
	if i := strings.Index(addr, "://"); i >= 0 {
		scheme = addr[:i+3]
	}
	p := &ServerPool{}
	for i := 0; i < shards; i++ {
		shardAddr := addr
		if i > 0 && !strings.HasSuffix(addr, ":0") {
			shardAddr = fmt.Sprintf("%s-s%d", addr, i)
		}
		l, err := ListenAddr(shardAddr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("orb: shard %d of %q: %w", i, addr, err)
		}
		p.servers = append(p.servers, Serve(oa, l))
		p.addrs = append(p.addrs, scheme+l.Addr())
	}
	return p, nil
}

// Addr returns the comma-separated shard addresses, each with the
// original scheme prefix — the string clients hand to DialAddr.
func (p *ServerPool) Addr() string { return strings.Join(p.addrs, ",") }

// Close gracefully drains every shard (Server.Close).
func (p *ServerPool) Close() {
	for _, s := range p.servers {
		s.Close()
	}
}
