package repo

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/cca"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// depositVersions fills a repository with a version ladder of one component.
func depositVersions(t *testing.T, s *Repository, name string, versions ...string) {
	t.Helper()
	for _, v := range versions {
		err := s.Deposit(Entry{
			Name: name, Version: v,
			Description: name + " at " + v,
			SIDL:        "", // the solver world is deposited separately
			Provides:    []PortSpec{{Name: "solver", Type: "esi.Solver"}},
			Factory:     func() cca.Component { return &stubComponent{} },
		})
		if err != nil {
			t.Fatalf("deposit %s v%s: %v", name, v, err)
		}
	}
}

func newSolverService(t *testing.T) *Repository {
	t.Helper()
	s := New()
	if err := s.Deposit(Entry{Name: "esi.Interfaces", Version: "1.0", SIDL: solverSIDL}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServiceMonotonicVersioning(t *testing.T) {
	s := newSolverService(t)
	depositVersions(t, s, "esi.CG", "1.0", "1.1", "2.0")
	if got, _ := s.Revision(); got != 4 {
		t.Fatalf("revision = %d, want 4", got)
	}
	// Equal and lower versions are rejected.
	for _, v := range []string{"2.0", "1.5", "0.9"} {
		err := s.Deposit(Entry{Name: "esi.CG", Version: v})
		if !errors.Is(err, ErrVersionOrder) {
			t.Errorf("deposit v%s: %v, want ErrVersionOrder", v, err)
		}
	}
	if got, _ := s.Revision(); got != 4 {
		t.Fatalf("revision moved on rejected deposits: %d", got)
	}
	// Unparseable versions and unknown port types are rejected.
	if err := s.Deposit(Entry{Name: "x", Version: "nope"}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	err := s.Deposit(Entry{
		Name: "y", Version: "1.0",
		Provides: []PortSpec{{Name: "p", Type: "no.Such"}},
	})
	if !errors.Is(err, ErrUnknownTyp) {
		t.Errorf("unknown port type: %v", err)
	}
	if err := s.Deposit(Entry{Name: "", Version: "1.0"}); !errors.Is(err, ErrBadEntry) {
		t.Errorf("empty name: %v", err)
	}
}

func TestServiceResolve(t *testing.T) {
	s := newSolverService(t)
	depositVersions(t, s, "esi.CG", "1.0", "1.2", "1.9", "2.1")
	cases := []struct {
		constraint, want string
	}{
		{"*", "2.1.0"},
		{"", "2.1.0"},
		{"^1.0", "1.9.0"},
		{"~1.2", "1.2.0"},
		{">=1.2 <2", "1.9.0"},
		{"1.0", "1.0.0"},
	}
	for _, c := range cases {
		e, v, err := s.Resolve("esi.CG", c.constraint)
		if err != nil {
			t.Errorf("resolve %q: %v", c.constraint, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("resolve %q = %s, want %s", c.constraint, v, c.want)
		}
		if e.Name != "esi.CG" {
			t.Errorf("resolve %q returned entry %q", c.constraint, e.Name)
		}
	}
	if _, _, err := s.Resolve("esi.CG", ">=3"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("unsatisfiable constraint: %v", err)
	}
	if _, _, err := s.Resolve("absent", "*"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown name: %v", err)
	}
	if _, _, err := s.Resolve("esi.CG", "^x"); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad constraint: %v", err)
	}
}

func TestServiceListDescribe(t *testing.T) {
	s := newSolverService(t)
	depositVersions(t, s, "esi.CG", "1.0", "1.1")
	ls := s.List()
	if len(ls) != 3 {
		t.Fatalf("list: %d rows, want 3", len(ls))
	}
	if ls[0].Name != "esi.CG" || ls[0].Version != "1.0.0" || !ls[0].HasFactory {
		t.Errorf("listing row: %+v", ls[0])
	}
	d := s.Describe()
	if !strings.Contains(d, "esi.CG v1.1.0") || !strings.Contains(d, "esi.Interfaces v1.0.0") {
		t.Errorf("describe:\n%s", d)
	}
}

// TestDepositAllBatchOrdering deposits a store's entries into a fresh one
// as one batch in sorted-name order: chad.FlowComponent's ports reference
// esi types deposited later in that order, and it carries no version
// (stored as 0.0.0) — both must survive, and a bound client sees the
// batch's revision.
func TestDepositAllBatchOrdering(t *testing.T) {
	var batch []Entry
	for _, e := range depositSolverWorld(t).all() {
		batch = append(batch, *e)
	}
	s := New()
	if err := s.DepositAll(batch); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if rev, err := startService(t, s).Head(); err != nil || int(rev) != len(batch) {
		t.Fatalf("revision %d (%v) after a batch of %d entries", rev, err, len(batch))
	}
	// A failing batch stores nothing.
	if err := s.DepositAll([]Entry{{Name: "z.New", Version: "1"}, {Name: "chad.FlowComponent"}}); !errors.Is(err, ErrVersionOrder) {
		t.Fatalf("re-deposit in a batch: %v", err)
	}
	if _, err := s.Retrieve("z.New"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed batch stored its first entry: %v", err)
	}
}

// startService binds a repository on a loopback transport and returns a
// connected client.
func startService(t *testing.T, s *Repository) *Client {
	t.Helper()
	oa := orb.NewObjectAdapter()
	s.Bind(oa)
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	t.Cleanup(srv.Close)
	c, err := DialService("tcp://" + srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientResolveAndCache(t *testing.T) {
	s := newSolverService(t)
	depositVersions(t, s, "esi.CG", "1.0", "1.2")
	c := startService(t, s)

	before := obs.Default.Snapshot().Counters

	rev, err := c.Head()
	if err != nil || rev != 3 {
		t.Fatalf("head: %d, %v", rev, err)
	}

	e, v, err := c.Resolve("esi.CG", "^1.0")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1.2.0" || e.Name != "esi.CG" || e.Factory != nil {
		t.Fatalf("resolve: %s %+v", v, e)
	}
	// Second resolve at the same revision: pure cache hit.
	_, v2, err := c.Resolve("esi.CG", "^1.0")
	if err != nil || v2 != v {
		t.Fatalf("cached resolve: %v %v", v2, err)
	}

	// An unrelated deposit moves the revision; the next resolve
	// revalidates by ETag and comes back "not modified".
	depositVersions(t, s, "esi.GMRES", "1.0")
	_, v3, err := c.Resolve("esi.CG", "^1.0")
	if err != nil || v3 != v {
		t.Fatalf("revalidated resolve: %v %v", v3, err)
	}

	// A relevant deposit changes the resolution: full fetch.
	depositVersions(t, s, "esi.CG", "1.9")
	_, v4, err := c.Resolve("esi.CG", "^1.0")
	if err != nil || v4.String() != "1.9.0" {
		t.Fatalf("after deposit: %v %v", v4, err)
	}

	after := obs.Default.Snapshot().Counters
	diff := func(name string) int64 { return int64(after[name] - before[name]) }
	if hits := diff("repo.client.cache_hits"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if revs := diff("repo.client.revalidations"); revs != 1 {
		t.Errorf("revalidations = %d, want 1", revs)
	}
	if fetches := diff("repo.client.fetches"); fetches != 2 {
		t.Errorf("fetches = %d, want 2", fetches)
	}
	if cacheLen(c) != 1 {
		t.Errorf("cache len = %d", cacheLen(c))
	}
}

func TestClientListDepositDescribe(t *testing.T) {
	s := newSolverService(t)
	c := startService(t, s)

	ls, err := c.List()
	if err != nil || len(ls) != 1 {
		t.Fatalf("list: %v %v", ls, err)
	}
	rev, err := deposit(c, &Entry{
		Name: "esi.CG", Version: "1.0",
		Description: "deposited over the wire",
		Provides:    []PortSpec{{Name: "solver", Type: "esi.Solver"}},
	})
	if err != nil || rev != 2 {
		t.Fatalf("deposit: %d %v", rev, err)
	}
	d, err := c.Describe()
	if err != nil || !strings.Contains(d, "deposited over the wire") {
		t.Fatalf("describe: %q %v", d, err)
	}
	// Wire errors surface typed-ish: a bad deposit is an invoke error.
	if _, err := deposit(c, &Entry{Name: "esi.CG", Version: "0.1"}); err == nil {
		t.Fatal("non-monotonic deposit over the wire succeeded")
	}
	// Resolve through the wire on a never-cached name errors cleanly.
	if _, _, err := c.Resolve("absent", "*"); err == nil {
		t.Fatal("resolve of absent name succeeded")
	}
}

// TestClientConcurrentResolve hammers one client from many goroutines while
// the service keeps depositing — the cache must stay consistent (never
// serve a version below one already observed for a monotone constraint).
func TestClientConcurrentResolve(t *testing.T) {
	s := newSolverService(t)
	depositVersions(t, s, "esi.CG", "1.0")
	c := startService(t, s)

	stop := make(chan struct{})
	var depositErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 20; i++ {
			if err := s.Deposit(Entry{
				Name: "esi.CG", Version: Version{1, i, 0}.String(),
				Provides: []PortSpec{{Name: "solver", Type: "esi.Solver"}},
			}); err != nil {
				depositErr = err
				return
			}
		}
		close(stop)
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := Version{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, v, err := c.Resolve("esi.CG", "^1.0")
				if err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				if v.Less(last) {
					t.Errorf("resolution went backwards: %v after %v", v, last)
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
	readers.Wait()
	if depositErr != nil {
		t.Fatal(depositErr)
	}
}

// deposit ships an entry to c's service (factory excluded — code does not
// serialize) and returns the post-deposit revision.
func deposit(c *Client, e *Entry) (int64, error) {
	raw, err := EncodeEntry(e)
	if err != nil {
		return 0, err
	}
	res, err := c.inv.Invoke(ServiceKey, "deposit", string(raw))
	if err != nil {
		return 0, err
	}
	return oneInt64(res, "deposit")
}

// cacheLen reports how many resolutions c remembers.
func cacheLen(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}
