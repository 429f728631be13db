package collective

// Tests for the publisher's generation semantics: plan dedup across
// subscribers, one snapshot per generation shared by every plan, epoch
// stability until Update/Advance, atomicity of Update against begin, the
// frame-cache hit rate asserted through the obs counters, stale-plan
// recovery after LRU eviction, pulls racing Updates, and the chaos case of
// one subscriber severed mid-broadcast while others keep pulling.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

func counters() map[string]uint64 { return obs.Default.Snapshot().Counters }

var errDataCorrupt = errors.New("pulled data corrupted")

// TestCachePlanDedup checks that subscribers announcing the same consumer
// distribution share one provider-side plan (same planID) while a
// different distribution gets its own.
func TestCachePlanDedup(t *testing.T) {
	const gl = 100
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-dedup", "wave", cohort(array.NewBlockMap(gl, 2), make([]float64, gl)))
	defer srv.Close()
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

// TestCacheEpochStableUntilAdvance pins the generation contract: pulls
// within a generation observe one immutable snapshot even while the
// provider mutates its arrays in place, a publisher that never opens a new
// generation keeps serving its first snapshot, and either way of opening
// one — Advance after the mutation, or Update around it — makes the next
// pull see the new data.
func TestCacheEpochStableUntilAdvance(t *testing.T) {
	const gl = 64
	for _, tc := range []struct {
		name string
		open func(pub *Publisher, mutate func())
	}{
		{"advance", func(pub *Publisher, mutate func()) { mutate(); pub.Advance() }},
		{"update", func(pub *Publisher, mutate func()) { pub.Update(mutate) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			global := make([]float64, gl)
			for i := range global {
				global[i] = float64(i)
			}
			ports := cohort(array.NewBlockMap(gl, 2), global)
			mutate := func() {
				for _, p := range ports {
					data := p.(*memPort).data
					for i := range data {
						data[i] += 1000
					}
				}
			}
			tr := &transport.InProc{}
			srv, pub := serve(t, tr, "cache-epoch-"+tc.name, "wave", ports)
			defer srv.Close()
			defer pub.Close()

			imp, err := Attach(tr, "cache-epoch-"+tc.name, "wave", array.NewSerialMap(gl), Options{})
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

			// A write the publisher is never told about stays invisible.
			mutate()
			before := counters()
			if err := imp.Pull(0, out); err != nil {
				t.Fatal(err)
			}
			if !floatsEqual(out, global) {
				t.Fatal("pull within a generation leaked a write")
			}
			after := counters()
			if got := after["collective.epoch_cache_hits"] - before["collective.epoch_cache_hits"]; got < 1 {
				t.Fatalf("epoch_cache_hits grew by %d, want >= 1", got)
			}

			tc.open(pub, mutate)
			if err := imp.Pull(0, out); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != global[i]+2000 {
					t.Fatalf("next generation's element %d = %v, want %v", i, out[i], global[i]+2000)
				}
			}
			post := counters()
			if got := post["collective.epoch_cache_misses"] - after["collective.epoch_cache_misses"]; got != 1 {
				t.Fatalf("new generation took %d snapshots, want 1", got)
			}
		})
	}
}

// TestGenerationSharedAcrossPlans: consumers with different distributions
// (so different plans) pulling the same generation are served from one
// snapshot — one epoch_cache_misses increment — and so observe the same
// timestep even though the provider's storage changed between their pulls.
func TestGenerationSharedAcrossPlans(t *testing.T) {
	const gl = 96
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.5
	}
	ports := cohort(array.NewBlockMap(gl, 3), global)
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-shared", "wave", ports)
	defer srv.Close()
	defer pub.Close()

	dists := []array.DataMap{array.NewSerialMap(gl), array.NewCyclicMap(gl, 2, 5), array.NewBlockMap(gl, 4)}
	before := counters()
	for i, dm := range dists {
		imp, err := Attach(tr, "cache-shared", "wave", dm, Options{ChunkBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		outs, err := pullAll(imp)
		if err != nil {
			t.Fatal(err)
		}
		for r := range outs {
			if want := wantLocal(dm, global, r); !floatsEqual(outs[r], want) {
				t.Fatalf("distribution %d rank %d saw a different timestep than the first puller", i, r)
			}
		}
		// Scribble on the live arrays: later plans must still get the
		// generation's snapshot, not this.
		for _, p := range ports {
			data := p.(*memPort).data
			for j := range data {
				data[j] = -1
			}
		}
	}
	after := counters()
	if got := after["collective.epoch_cache_misses"] - before["collective.epoch_cache_misses"]; got != 1 {
		t.Fatalf("%d plans on one generation took %d snapshots, want 1", len(dists), got)
	}
	if got := after["collective.epoch_cache_hits"] - before["collective.epoch_cache_hits"]; got != uint64(len(dists)-1) {
		t.Fatalf("epoch_cache_hits grew by %d, want %d", got, len(dists)-1)
	}
}

// oneStep returns the timestep a pulled cohort holds when every element of
// every rank carries the same one (the providers in these tests fill their
// arrays with the step number), and an error naming the first that differs.
func oneStep(outs [][]float64) (float64, error) {
	for r, out := range outs {
		for i, v := range out {
			if v != outs[0][0] {
				return 0, fmt.Errorf("torn epoch: rank %d element %d is at step %v, rank 0 element 0 at step %v", r, i, v, outs[0][0])
			}
		}
	}
	return outs[0][0], nil
}

// tearPort is a cohort rank whose rank-0 snapshot, while armed, gives a
// concurrent whole-cohort Update every chance to land before rank 1 is read.
type tearPort struct {
	memPort
	rank    int
	armed   *atomic.Bool
	update  func() // rewrites every rank through Publisher.Update
	updates *sync.WaitGroup
}

func (p *tearPort) Snapshot() []float64 {
	out := append([]float64(nil), p.data...)
	if p.rank == 0 && p.armed.Load() {
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
// and rank 1's snapshot must not put two steps into one epoch. Two plans
// with different consumer distributions take turns being the begin the
// Update races, then both pull the generation that Update opened and must
// see the same, whole, timestep.
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
	var (
		updates sync.WaitGroup
		armed   atomic.Bool
	)
	defer updates.Wait()
	ports := make([]ccoll.DistArrayPort, 2)
	for r := range ranks {
		data := make([]float64, m.LocalLen(r))
		for i := range data {
			data[i] = step
		}
		ranks[r] = &tearPort{memPort: memPort{side: ccoll.Side{Map: m}, data: data}, rank: r, armed: &armed, update: update, updates: &updates}
		ports[r] = ranks[r]
	}
	tr := &transport.InProc{}
	var srv *orb.Server
	srv, pub = serve(t, tr, "cache-tear", "wave", ports)
	defer srv.Close()
	defer pub.Close()

	imps := make([]*Import, 2)
	for i, dm := range []array.DataMap{array.NewSerialMap(gl), array.NewCyclicMap(gl, 3, 4)} {
		imp, err := Attach(tr, "cache-tear", "wave", dm, Options{ChunkBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		imps[i] = imp
	}
	// whole pulls every consumer rank and returns the one step it saw.
	whole := func(what string, imp *Import) float64 {
		t.Helper()
		outs, err := pullAll(imp)
		if err != nil {
			t.Fatal(err)
		}
		step, err := oneStep(outs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return step
	}
	for round := 0; round < 4; round++ {
		armed.Store(true)
		whole("racing pull", imps[round%2])
		updates.Wait()
		armed.Store(false)
		a, b := whole("plan 0", imps[0]), whole("plan 1", imps[1])
		if a != b {
			t.Fatalf("round %d: two plans on one generation saw steps %v and %v", round, a, b)
		}
	}
}

// TestPullAcrossUpdate pins what a pull in flight across an Update may
// observe: chunks addressed to its epoch keep coming from that generation's
// snapshot however many Updates land meanwhile, until the generation is
// evicted, after which they fail stale — the consumer's cue to start over.
// It never gets another generation's bytes under the old epoch ID.
func TestPullAcrossUpdate(t *testing.T) {
	const gl = 16
	data := make([]float64, gl)
	port := &memPort{side: ccoll.Side{Map: array.NewSerialMap(gl)}, data: data}
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-across", "wave", []ccoll.DistArrayPort{port})
	defer srv.Close()
	defer pub.Close()
	c := rawClient(t, tr, "cache-across")
	defer c.Close()
	key := Key("wave")
	res, err := c.Invoke(key, "exchange", int32(gl), []int32{0, gl, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	planID := res[0].(int64)
	begin := func() int64 {
		t.Helper()
		res, err := c.Invoke(key, "begin", planID)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(int64)
	}
	half := func(epoch int64, lo int32) ([]float64, error) {
		res, err := c.Invoke(key, "chunk", planID, epoch, int32(0), int32(0), lo, int32(gl/2))
		if err != nil {
			return nil, err
		}
		return res[0].([]float64), nil
	}
	fill := func(v float64) func() {
		return func() {
			for i := range data {
				data[i] = v
			}
		}
	}

	mine := begin()
	first, err := half(mine, 0)
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g < maxEpochsPerPlan; g++ {
		pub.Update(fill(float64(g)))
		if next := begin(); next == mine {
			t.Fatal("begin after Update rejoined the old epoch")
		}
		second, err := half(mine, gl/2)
		if err != nil {
			t.Fatalf("own generation gone after %d Updates: %v", g, err)
		}
		if !floatsEqual(second, first) {
			t.Fatalf("after %d Updates the old epoch served %v, first half was %v", g, second, first)
		}
	}
	pub.Update(fill(99))
	begin() // one snapshot more than the cache holds
	if _, err := half(mine, gl/2); !IsStale(err) {
		t.Fatalf("evicted generation: err = %v, want stale", err)
	}
}

// TestPullsRacingUpdatesNeverMix is the same property end to end: three
// consumers on different plans pull continuously while the provider steps
// as fast as it can. Every completed pull is one whole timestep; a pull
// that loses its generation to the others' snapshots retries, and may give
// up stale, but never returns a mixture.
func TestPullsRacingUpdatesNeverMix(t *testing.T) {
	const gl = 512
	m := array.NewBlockMap(gl, 2)
	ports := cohort(m, make([]float64, gl))
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-race", "wave", ports)
	defer srv.Close()
	defer pub.Close()

	stop := make(chan struct{})
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for step := 1.0; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			pub.Update(func() {
				for _, p := range ports {
					data := p.(*memPort).data
					for i := range data {
						data[i] = step
					}
				}
			})
		}
	}()
	var wg sync.WaitGroup
	for _, dm := range []array.DataMap{array.NewSerialMap(gl), array.NewCyclicMap(gl, 2, 8), array.NewBlockMap(gl, 3)} {
		imp, err := Attach(tr, "cache-race", "wave", dm, Options{ChunkBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		wg.Add(1)
		go func(imp *Import) {
			defer wg.Done()
			for pull := 0; pull < 25; pull++ {
				outs, err := pullAll(imp)
				if IsStale(err) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := oneStep(outs); err != nil {
					t.Errorf("pull %d: %v", pull, err)
					return
				}
			}
		}(imp)
	}
	wg.Wait()
	close(stop)
	stepper.Wait()
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
	srv, pub := serve(t, tr, "cache-rate", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Close()
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
	srv, pub := serve(t, tr, "cache-evict", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Close()
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

// TestCacheRestartedPublisherDoesNotAliasPlans restarts the publisher under
// a live subscriber A and lets a subscriber B with a different distribution
// exchange first. A's plan ID must not name B's plan on the restarted
// publisher: A's next pull heals through the stale-plan sentinel and
// returns A's own placement, not chunks cut for B.
func TestCacheRestartedPublisherDoesNotAliasPlans(t *testing.T) {
	const gl = 240
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.5
	}
	tr := &transport.InProc{}
	ports := cohort(array.NewBlockMap(gl, 2), global)
	srv, pub := serve(t, tr, "cache-restart", "wave", ports)
	defer srv.Close()

	dstA := array.NewCyclicMap(gl, 3, 4)
	a, err := Attach(tr, "cache-restart", "wave", dstA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	pub.Close()
	restarted, err := Publish(srv.OA, "wave", ports)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	b, err := Attach(tr, "cache-restart", "wave", array.NewBlockMap(gl, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	outs, err := pullAll(a)
	if err != nil {
		t.Fatalf("pull after publisher restart: %v", err)
	}
	for r := range outs {
		if want := wantLocal(dstA, global, r); !floatsEqual(outs[r], want) {
			t.Fatalf("rank %d after publisher restart: got %v…, want %v…", r, outs[r][:4], want[:4])
		}
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
	srv, pub := serve(t, inner, "127.0.0.1:0", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Close()
	defer pub.Close()
	addr := srv.Addr()

	faulty := transport.NewFaulty(inner, transport.Faults{SeverAfterSends: 20})
	var clearOnce sync.Once
	victimOpts := Options{
		ChunkBytes: 512, // many chunk calls, so the sever lands mid-pull
		Supervisor: orb.SupervisorOptions{
			Retry:       transport.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond},
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
