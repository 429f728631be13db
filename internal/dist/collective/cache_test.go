package collective

// Tests for the epoch-cache serving tier (Publish ... WithEpochCache):
// plan dedup across subscribers, epoch stability until Advance, the
// frame-cache hit rate asserted through the obs counters, stale-plan
// recovery after LRU eviction, and the chaos case of one subscriber
// severed mid-broadcast while others keep pulling.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// serveCached is serve with the epoch cache turned on.
func serveCached(t *testing.T, tr transport.Transport, addr, name string, ports []ccoll.DistArrayPort) (*orb.Server, *Publisher) {
	t.Helper()
	oa := orb.NewObjectAdapter()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	pub, err := Publish(oa, name, ports, WithEpochCache())
	if err != nil {
		srv.Stop()
		t.Fatal(err)
	}
	return srv, pub
}

func counters() map[string]uint64 { return obs.Default.Snapshot().Counters }

var errDataCorrupt = errors.New("pulled data corrupted")

// TestCachePlanDedup checks that subscribers announcing the same consumer
// distribution share one provider-side plan (same planID) while a
// different distribution gets its own.
func TestCachePlanDedup(t *testing.T) {
	const gl = 100
	tr := &transport.InProc{}
	srv, pub := serveCached(t, tr, "cache-dedup", "wave", cohort(array.NewBlockMap(gl, 2), make([]float64, gl)))
	defer srv.Stop()
	defer pub.Close()

	before := counters()
	a, err := Attach(tr, "cache-dedup", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Attach(tr, "cache-dedup", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.planID != b.planID {
		t.Fatalf("identical distributions got plans %d and %d, want shared", a.planID, b.planID)
	}
	c, err := Attach(tr, "cache-dedup", "wave", array.NewBlockMap(gl, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.planID == a.planID {
		t.Fatal("distinct distribution shares a plan")
	}
	after := counters()
	if got := after["collective.plan_cache_hits"] - before["collective.plan_cache_hits"]; got < 1 {
		t.Fatalf("plan_cache_hits grew by %d, want >= 1", got)
	}
}

// TestCacheEpochStableUntilAdvance pins the cache-mode contract: pulls
// between Advance calls observe one immutable snapshot even while the
// provider mutates its arrays, and Advance opens the next snapshot.
func TestCacheEpochStableUntilAdvance(t *testing.T) {
	const gl = 64
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i)
	}
	m := array.NewBlockMap(gl, 2)
	ports := cohort(m, global)
	tr := &transport.InProc{}
	srv, pub := serveCached(t, tr, "cache-epoch", "wave", ports)
	defer srv.Stop()
	defer pub.Close()

	imp, err := Attach(tr, "cache-epoch", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	out := make([]float64, gl)
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(out, global) {
		t.Fatal("first pull wrong")
	}

	// Mutate every provider rank in place — the published epoch must not
	// see it until Advance.
	for _, p := range ports {
		data := p.(*memPort).data
		for i := range data {
			data[i] += 1000
		}
	}
	before := counters()
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(out, global) {
		t.Fatal("pull between Advances leaked a mid-generation write")
	}
	after := counters()
	if got := after["collective.epoch_cache_hits"] - before["collective.epoch_cache_hits"]; got < 1 {
		t.Fatalf("epoch_cache_hits grew by %d, want >= 1", got)
	}

	pub.Advance()
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != global[i]+1000 {
			t.Fatalf("post-Advance element %d = %v, want %v", i, out[i], global[i]+1000)
		}
	}
	post := counters()
	if got := post["collective.epoch_cache_misses"] - after["collective.epoch_cache_misses"]; got < 1 {
		t.Fatalf("Advance did not force a fresh snapshot (misses grew by %d)", got)
	}
}

// tearPort is a cohort rank whose rank-0 snapshot gives a concurrent
// whole-cohort Update every chance to land before rank 1 is read.
type tearPort struct {
	memPort
	rank    int
	update  func() // rewrites every rank through Publisher.Update
	updates *sync.WaitGroup
}

func (p *tearPort) Snapshot() []float64 {
	out := append([]float64(nil), p.data...)
	if p.rank == 0 {
		done := make(chan struct{})
		p.updates.Add(1)
		go func() {
			defer p.updates.Done()
			p.update()
			close(done)
		}()
		// Update waits for this begin to finish, so the timeout is the path
		// taken; a mutation that could complete here would tear the epoch.
		select {
		case <-done:
		case <-time.After(20 * time.Millisecond):
		}
	}
	return out
}

// TestUpdateIsAtomicWithBegin is the distviz "torn epoch" regression: a
// timestep rewriting both provider ranks while begin is between rank 0's
// and rank 1's snapshot must not put two steps into one epoch.
func TestUpdateIsAtomicWithBegin(t *testing.T) {
	const gl = 64
	m := array.NewBlockMap(gl, 2)
	var pub *Publisher
	ranks := make([]*tearPort, 2)
	step := 1.0
	update := func() {
		pub.Update(func() {
			step++
			for _, r := range ranks {
				for i := range r.data {
					r.data[i] = step
				}
			}
		})
	}
	var updates sync.WaitGroup
	defer updates.Wait()
	ports := make([]ccoll.DistArrayPort, 2)
	for r := range ranks {
		data := make([]float64, m.LocalLen(r))
		for i := range data {
			data[i] = step
		}
		ranks[r] = &tearPort{memPort: memPort{side: ccoll.Side{Map: m}, data: data}, rank: r, update: update, updates: &updates}
		ports[r] = ranks[r]
	}
	tr := &transport.InProc{}
	var srv *orb.Server
	srv, pub = serveCached(t, tr, "cache-tear", "wave", ports)
	defer srv.Stop()
	defer pub.Close()

	imp, err := Attach(tr, "cache-tear", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	out := make([]float64, gl)
	for pull := 0; pull < 3; pull++ {
		if err := imp.Pull(0, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != out[0] {
				t.Fatalf("pull %d: element %d is at step %v, element 0 at step %v — torn epoch", pull, i, v, out[0])
			}
		}
	}
}

// TestCacheFrameHitRate repeats pulls under one frozen generation and
// asserts the steady-state frame-cache hit rate the serving tier is built
// around: every subscriber after the first pack is served from cache.
func TestCacheFrameHitRate(t *testing.T) {
	const gl = 512
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 0.25
	}
	tr := &transport.InProc{}
	srv, pub := serveCached(t, tr, "cache-rate", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Stop()
	defer pub.Close()

	// Small chunks so each pull issues several frame requests.
	imp, err := Attach(tr, "cache-rate", "wave", array.NewSerialMap(gl), Options{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()

	before := counters()
	out := make([]float64, gl)
	const pulls = 40
	for i := 0; i < pulls; i++ {
		if err := imp.Pull(0, out); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		if !floatsEqual(out, global) {
			t.Fatalf("pull %d corrupted", i)
		}
	}
	after := counters()
	hits := after["collective.frame_cache_hits"] - before["collective.frame_cache_hits"]
	misses := after["collective.frame_cache_misses"] - before["collective.frame_cache_misses"]
	if hits+misses == 0 {
		t.Fatal("no frame-cache traffic recorded")
	}
	if rate := float64(hits) / float64(hits+misses); rate <= 0.9 {
		t.Fatalf("frame cache hit rate %.1f%% (%d hits / %d misses), want > 90%%",
			100*rate, hits, misses)
	}
}

// TestCacheStalePlanAfterEviction evicts a subscriber's plan by churning
// maxPlans distinct distributions through the publisher, then checks the
// subscriber's next pull heals through the stale-plan sentinel: a
// transparent re-exchange onto a fresh plan, correct data, no error.
func TestCacheStalePlanAfterEviction(t *testing.T) {
	const gl = 240
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.5
	}
	tr := &transport.InProc{}
	srv, pub := serveCached(t, tr, "cache-evict", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Stop()
	defer pub.Close()

	imp, err := Attach(tr, "cache-evict", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	oldPlan := imp.planID

	// maxPlans+1 distinct consumer distributions push the first plan out
	// of the LRU (and its digest out of the dedup table).
	for r := 2; r <= maxPlans+2; r++ {
		other, err := Attach(tr, "cache-evict", "wave", array.NewBlockMap(gl, r), Options{})
		if err != nil {
			t.Fatalf("churn attach ranks=%d: %v", r, err)
		}
		other.Close()
	}

	out := make([]float64, gl)
	if err := imp.Pull(0, out); err != nil {
		t.Fatalf("pull after plan eviction: %v", err)
	}
	if !floatsEqual(out, global) {
		t.Fatal("post-eviction pull returned wrong data")
	}
	if imp.planID == oldPlan {
		t.Fatalf("pull succeeded without re-exchange; plan %d should have been evicted", oldPlan)
	}
}

// TestCacheSeveredSubscriberDoesNotStallOthers is the chaos case: one
// subscriber's connection is severed mid-broadcast while two healthy
// subscribers keep pulling the same cached epochs. The healthy pulls must
// all complete with intact data, and the severed subscriber must heal
// through its supervisor and finish too.
func TestCacheSeveredSubscriberDoesNotStallOthers(t *testing.T) {
	const gl = 20000
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 0.5
	}
	inner := transport.TCP{}
	srv, pub := serveCached(t, inner, "127.0.0.1:0", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Stop()
	defer pub.Close()
	addr := srv.Addr()

	faulty := transport.NewFaulty(inner, transport.Faults{SeverAfterSends: 20})
	var clearOnce sync.Once
	victimOpts := Options{
		ChunkBytes: 512, // many chunk calls, so the sever lands mid-pull
		Supervisor: orb.SupervisorOptions{
			RetryBase:   time.Millisecond,
			RetryCap:    20 * time.Millisecond,
			MaxAttempts: 8,
			OnState: func(s orb.ConnState, _ error) {
				if s == orb.StateDegraded {
					clearOnce.Do(func() { faulty.SetFaults(transport.Faults{}) })
				}
			},
		},
	}

	victim, err := Attach(faulty, addr, "wave", array.NewSerialMap(gl), victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	const healthy = 2
	imps := make([]*Import, healthy)
	for i := range imps {
		imp, err := Attach(inner, addr, "wave", array.NewSerialMap(gl), Options{ChunkBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		imps[i] = imp
	}

	var wg sync.WaitGroup
	errs := make(chan error, healthy+1)
	for _, imp := range imps {
		wg.Add(1)
		go func(imp *Import) {
			defer wg.Done()
			out := make([]float64, gl)
			for i := 0; i < 5; i++ {
				if err := imp.PullContext(context.Background(), 0, out); err != nil {
					errs <- err
					return
				}
				if !floatsEqual(out, global) {
					errs <- errDataCorrupt
					return
				}
			}
		}(imp)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]float64, gl)
		if err := victim.PullContext(context.Background(), 0, out); err != nil {
			errs <- err
			return
		}
		if !floatsEqual(out, global) {
			errs <- errDataCorrupt
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if faulty.Stats().Severs == 0 {
		t.Fatal("fault plan never fired; test proved nothing")
	}
}
