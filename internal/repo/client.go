package repo

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/orb"
)

// Resolver-cache instruments: hits served without touching the network
// body, revalidations that came back "not modified", and full fetches.
var (
	cClientHits        = obs.NewCounter("repo.client.cache_hits")
	cClientRevalidated = obs.NewCounter("repo.client.revalidations")
	cClientFetches     = obs.NewCounter("repo.client.fetches")
)

// Invoker is the client surface a repository Client calls through — both
// *orb.Client and *orb.Supervised satisfy it.
type Invoker interface {
	Invoke(key, method string, args ...any) ([]any, error)
	Close() error
}

// cachedResolution is one remembered (name, constraint) → (version, entry)
// resolution, tagged with the store revision it was made at.
type cachedResolution struct {
	rev int64
	v   Version
	e   *Entry
}

// Client is a connection to a bound repository (Bind) with an ETag-style
// resolution cache. The consistency model leans on two server guarantees:
// deposits are append-only with per-name monotonic versions, and the
// global revision bumps on every deposit. So a cached resolution is valid
// verbatim while the revision is unchanged (one head() round trip
// revalidates the entire cache), and when the revision has moved the
// client re-fetches with the cached version as an ETag — an unrelated
// deposit costs one small "not modified" reply instead of a body.
type Client struct {
	inv Invoker

	mu    sync.Mutex
	cache map[string]*cachedResolution
}

// DialService connects to a served repository at a scheme-qualified
// address (tcp://host:port or shm:///dir).
func DialService(addr string) (*Client, error) {
	c, err := orb.DialAddr(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an existing ORB connection (bare or supervised).
func NewClient(inv Invoker) *Client {
	return &Client{inv: inv, cache: map[string]*cachedResolution{}}
}

// Close releases the underlying connection.
func (c *Client) Close() error { return c.inv.Close() }

// Head returns the repository's current revision.
func (c *Client) Head() (int64, error) {
	res, err := c.inv.Invoke(ServiceKey, "head")
	if err != nil {
		return 0, err
	}
	return oneInt64(res, "head")
}

// Revision is Head under the name the ccl resolver's Source interface
// uses.
func (c *Client) Revision() (int64, error) { return c.Head() }

// List fetches every deposited (name, version) pair.
func (c *Client) List() ([]Listing, error) {
	res, err := c.inv.Invoke(ServiceKey, "list")
	if err != nil {
		return nil, err
	}
	if len(res) != 2 {
		return nil, fmt.Errorf("repo: list returned %d values", len(res))
	}
	body, ok := res[1].(string)
	if !ok {
		return nil, fmt.Errorf("repo: list body is %T", res[1])
	}
	var out []Listing
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		return nil, fmt.Errorf("repo: list: %w", err)
	}
	return out, nil
}

// Describe fetches the service's human-readable listing.
func (c *Client) Describe() (string, error) {
	res, err := c.inv.Invoke(ServiceKey, "describe")
	if err != nil {
		return "", err
	}
	if len(res) != 1 {
		return "", fmt.Errorf("repo: describe returned %d values", len(res))
	}
	s, ok := res[0].(string)
	if !ok {
		return "", fmt.Errorf("repo: describe returned %T", res[0])
	}
	return s, nil
}

// Resolve returns the highest deposited version of name satisfying the
// constraint, consulting the cache first. The returned entry is shared
// with the cache; callers must not mutate it.
func (c *Client) Resolve(name, constraint string) (*Entry, Version, error) {
	rev, err := c.Head()
	if err != nil {
		return nil, Version{}, err
	}
	key := name + "\x00" + constraint
	c.mu.Lock()
	cached := c.cache[key]
	c.mu.Unlock()
	if cached != nil && cached.rev == rev {
		cClientHits.Inc()
		return cached.e, cached.v, nil
	}
	etag := ""
	if cached != nil {
		etag = cached.v.String()
	}
	res, err := c.inv.Invoke(ServiceKey, "fetch", name, constraint, etag)
	if err != nil {
		return nil, Version{}, err
	}
	if len(res) != 3 {
		return nil, Version{}, fmt.Errorf("repo: fetch returned %d values", len(res))
	}
	fetchRev, ok := res[0].(int64)
	if !ok {
		return nil, Version{}, fmt.Errorf("repo: fetch revision is %T", res[0])
	}
	vs, ok := res[1].(string)
	if !ok {
		return nil, Version{}, fmt.Errorf("repo: fetch version is %T", res[1])
	}
	v, err := ParseVersion(vs)
	if err != nil {
		return nil, Version{}, err
	}
	body, ok := res[2].(string)
	if !ok {
		return nil, Version{}, fmt.Errorf("repo: fetch body is %T", res[2])
	}
	if body == "" {
		// Not modified: the cached entry is still the resolution.
		if cached == nil || cached.v != v {
			return nil, Version{}, fmt.Errorf("repo: fetch returned no body for uncached %s@%s", name, v)
		}
		cClientRevalidated.Inc()
		c.mu.Lock()
		cached.rev = fetchRev
		c.mu.Unlock()
		return cached.e, v, nil
	}
	e, err := DecodeEntry([]byte(body))
	if err != nil {
		return nil, Version{}, err
	}
	cClientFetches.Inc()
	c.mu.Lock()
	c.cache[key] = &cachedResolution{rev: fetchRev, v: v, e: e}
	c.mu.Unlock()
	return e, v, nil
}

func oneInt64(res []any, method string) (int64, error) {
	if len(res) != 1 {
		return 0, fmt.Errorf("repo: %s returned %d values", method, len(res))
	}
	n, ok := res[0].(int64)
	if !ok {
		return 0, fmt.Errorf("repo: %s returned %T", method, res[0])
	}
	return n, nil
}
