package collective

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	ccoll "repro/internal/cca/collective"
	"repro/internal/orb"
	"repro/internal/transport"
)

// Provider-side cache bounds. Plans and generations are soft state: a
// consumer whose entry was evicted re-exchanges (IsStale), so these caps
// only bound memory against vanished consumers, never correctness. Every
// plan addresses the same generations, so "per plan" is also the total.
const (
	maxPlans         = 8
	maxEpochsPerPlan = 4
)

// frameKey identifies one packed chunk frame within a generation: the plan,
// its (src,dst) pair, and the [lo, lo+count) element window. Subscribers
// with the same plan and ChunkBytes ask for byte-identical windows, so the
// key is exact — no partial-overlap handling.
type frameKey struct {
	plan                int64
	src, dst, lo, count int32
}

// provGen is one generation's snapshot of the whole cohort — taken once,
// whichever plan begins first — plus the chunk frames packed from it. snap
// is immutable once published; frames is guarded by Publisher.mu.
type provGen struct {
	snap   [][]float64
	frames map[frameKey]*transport.SharedBuf
}

// release drops the cached frame references of plan, or of every plan when
// plan is 0 (IDs are positive). In-flight sends hold their own references,
// so eviction never tears a write.
func (g *provGen) release(plan int64) {
	for k, b := range g.frames {
		if plan == 0 || k.plan == plan {
			b.Release()
			delete(g.frames, k)
		}
	}
}

// Publisher serves a cohort of DistArrayPorts as an orb.Handler on the
// reserved key Key(name): the provider half of a cross-process collective
// connection. One Publisher represents the whole M-rank cohort — ports[i]
// is cohort rank i — mirroring how an SPMD component's port is logically
// one port exposed by every rank (§6.3).
//
// The publisher owns a generation counter that Update (and Advance) bump.
// The first begin of a generation snapshots the cohort; every later begin,
// on any plan, is answered with that same snapshot until the next Update,
// so all subscribers of a generation see one timestep and each chunk
// window is packed once into a reference-counted frame spliced into every
// reply. A publisher that never calls Update serves the data it held at
// its first begin.
//
// All servant methods are driven by remote consumers; Publisher itself is
// safe for concurrent dispatch.
type Publisher struct {
	name  string
	oa    *orb.ObjectAdapter
	ports []ccoll.DistArrayPort
	side  ccoll.Side // provider side rebased to world ranks 0..M−1
	wire  []int32    // side's canonical runs, wire form

	mu        sync.Mutex
	closed    bool
	gen       int64 // current generation, also the epoch ID begin answers
	nextPlan  int64 // last plan ID issued; starts at a random base (see exchange)
	plans     map[int64]*ccoll.Plan
	planKeys  map[string]int64 // distribution digest → plan ID
	planOrder []int64          // LRU, oldest first
	gens      map[int64]*provGen
	genOrder  []int64 // oldest first
}

// PublishOption is accepted and ignored by Publish.
//
// Deprecated: the epoch cache it used to select is the only serving path.
// The symbol remains for the frozen benchmark/ module, its last caller.
type PublishOption struct{}

// Deprecated: returns the inert PublishOption.
func WithEpochCache() PublishOption { return PublishOption{} }

// Publish validates the cohort and registers it on oa under Key(name).
// Every port must describe the same distribution (same map, ports[i]
// serving cohort rank i); inconsistent sides — the paper's port-information
// consistency hazard for parallel components — are rejected here rather
// than surfacing as silent data corruption at the first pull.
func Publish(oa *orb.ObjectAdapter, name string, ports []ccoll.DistArrayPort, _ ...PublishOption) (*Publisher, error) {
	if len(ports) == 0 {
		return nil, fmt.Errorf("collective: publish %q with empty cohort", name)
	}
	m := ports[0].Side().Map
	if m == nil {
		return nil, fmt.Errorf("collective: publish %q with unbound map", name)
	}
	if m.Ranks() != len(ports) {
		return nil, fmt.Errorf("collective: publish %q: map has %d ranks, cohort has %d ports",
			name, m.Ranks(), len(ports))
	}
	wire := encodeRuns(m)
	for i := 1; i < len(ports); i++ {
		mi := ports[i].Side().Map
		if mi == nil || mi.GlobalLen() != m.GlobalLen() || !slices.Equal(encodeRuns(mi), wire) {
			return nil, fmt.Errorf("collective: publish %q: rank %d describes a different distribution", name, i)
		}
	}
	p := &Publisher{
		name:     name,
		oa:       oa,
		ports:    ports,
		side:     sideOf(m, 0),
		wire:     wire,
		gen:      1,
		nextPlan: rand.Int64N(1 << 62),
		plans:    make(map[int64]*ccoll.Plan),
		planKeys: make(map[string]int64),
		gens:     make(map[int64]*provGen),
	}
	oa.Handle(Key(name), p.handle)
	return p, nil
}

// Advance declares the published arrays mutated: the next begin snapshots
// fresh data instead of joining the current generation. Call it once per
// timestep (after the mutation), not per subscriber — it is the only
// invalidation point. A mutation that rewrites more than one rank while
// consumers may be pulling belongs inside Update instead.
func (p *Publisher) Advance() { p.Update(func() {}) }

// Update runs mutate — a timestep's rewrite of the published arrays — and
// then advances the generation, all under the lock begin snapshots the
// cohort under. A begin therefore sees every rank before the mutation or
// every rank after it. Ports that only guard each rank's chunk cannot give
// that: begin reads the cohort one rank at a time, and a whole-cohort
// rewrite landing between two of those reads would put two timesteps into
// one epoch. mutate must not call back into the publisher.
func (p *Publisher) Update(mutate func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	mutate()
	p.gen++
}

// Close unregisters the servant and drops all plan/generation state.
// In-flight consumers observe stale-plan errors on their next call and
// re-exchange against whatever replaces this publisher (or fail if nothing
// does).
func (p *Publisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, g := range p.gens {
		g.release(0)
	}
	p.plans, p.planKeys, p.planOrder = nil, nil, nil
	p.gens, p.genOrder = nil, nil
	p.oa.Unregister(Key(p.name))
}

// handle is the publisher's orb.Handler: the dispatch target for the
// three protocol methods on Key(name).
func (p *Publisher) handle(method string, args []any, reply *orb.Encoder) error {
	if reply == nil {
		return fmt.Errorf("collective: %q has no oneway method %q", p.name, method)
	}
	switch method {
	case "exchange":
		return p.exchange(args, reply)
	case "begin":
		return p.begin(args, reply)
	case "chunk":
		return p.chunk(args, reply)
	default:
		return fmt.Errorf("collective: %q has no method %q", p.name, method)
	}
}

// planDigest is the dedup key for an exchanged consumer distribution:
// global length plus the canonical run list, byte-packed. Two consumers
// with equal digests build byte-identical plans, so they share one.
func planDigest(n int32, flat []int32) string {
	b := make([]byte, 4+4*len(flat))
	binary.LittleEndian.PutUint32(b, uint32(n))
	for i, v := range flat {
		binary.LittleEndian.PutUint32(b[4+4*i:], uint32(v))
	}
	return string(b)
}

// exchange(int32 globalLen, []int32 consumerRuns) →
// (int64 planID, int32 globalLen, []int32 providerRuns).
//
// The consumer sends its distribution; the provider validates it, builds
// the M→N plan (provider world ranks 0..M−1, consumer M..M+N−1), caches it
// under a fresh ID, and answers with its own distribution so the consumer
// can build the byte-identical plan locally. An identical distribution
// resolves to the already-cached plan, so a fleet of uniform subscribers
// shares one plan and one set of packed frames.
func (p *Publisher) exchange(args []any, reply *orb.Encoder) error {
	if len(args) != 2 {
		return fmt.Errorf("collective: exchange wants (globalLen, runs), got %d args", len(args))
	}
	n, ok := args[0].(int32)
	if !ok {
		return fmt.Errorf("collective: exchange globalLen is %T, want int32", args[0])
	}
	flat, ok := args[1].([]int32)
	if !ok {
		return fmt.Errorf("collective: exchange runs are %T, want []int32", args[1])
	}
	digest := planDigest(n, flat)
	// cached answers from the dedup table; the caller holds p.mu.
	cached := func() bool {
		id, ok := p.planKeys[digest]
		if !ok {
			return false
		}
		if _, err := p.lookupPlan(id); err != nil {
			return false
		}
		cPlanCacheHits.Inc()
		p.answerExchange(reply, id)
		return true
	}
	p.mu.Lock()
	hit := cached()
	p.mu.Unlock()
	if hit {
		return nil
	}
	cm, err := decodeRuns(p.side.Map.GlobalLen(), int(n), flat)
	if err != nil {
		return err
	}
	plan, err := ccoll.NewPlan(p.side, sideOf(cm, len(p.ports)))
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("%s: publisher %q closed", stalePlanMsg, p.name)
	}
	// Re-check under the lock: a concurrent exchange of the same
	// distribution may have won the build race.
	if cached() {
		return nil
	}
	// IDs count up from a random per-publisher base, so a consumer still
	// holding an ID from before a restart gets the stale-plan sentinel (and
	// re-exchanges) instead of aliasing a plan issued to another
	// distribution after the restart.
	p.nextPlan++
	id := p.nextPlan
	p.plans[id] = plan
	p.planKeys[digest] = id
	p.planOrder = append(p.planOrder, id)
	if len(p.planOrder) > maxPlans {
		evict := p.planOrder[0]
		p.planOrder = p.planOrder[1:]
		delete(p.plans, evict)
		for k, v := range p.planKeys {
			if v == evict {
				delete(p.planKeys, k)
			}
		}
		for _, g := range p.gens {
			g.release(evict)
		}
	}
	p.answerExchange(reply, id)
	return nil
}

func (p *Publisher) answerExchange(reply *orb.Encoder, id int64) {
	reply.Encode(id)                            //nolint:errcheck
	reply.Encode(int32(p.side.Map.GlobalLen())) //nolint:errcheck
	reply.Encode(p.wire)                        //nolint:errcheck
}

// lookupPlan fetches a live plan and marks it most-recently-used.
func (p *Publisher) lookupPlan(id int64) (*ccoll.Plan, error) {
	plan := p.plans[id]
	if plan == nil {
		return nil, fmt.Errorf("%s %d", stalePlanMsg, id)
	}
	for i, v := range p.planOrder {
		if v == id {
			p.planOrder = append(append(p.planOrder[:i:i], p.planOrder[i+1:]...), id)
			break
		}
	}
	return plan, nil
}

// begin(int64 planID) → (int64 epoch). The epoch is the current generation.
// Its first begin snapshots every provider rank's chunk, so a pull observes
// a single consistent timestep even while the simulation keeps mutating its
// arrays; the snapshot (and the frames packed from it) then amortizes over
// every subscriber of every plan until the publisher Updates.
func (p *Publisher) begin(args []any, reply *orb.Encoder) error {
	if len(args) != 1 {
		return fmt.Errorf("collective: begin wants (planID), got %d args", len(args))
	}
	id, ok := args[0].(int64)
	if !ok {
		return fmt.Errorf("collective: begin planID is %T, want int64", args[0])
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.lookupPlan(id); err != nil {
		return err
	}
	if p.gens[p.gen] != nil {
		cEpochCacheHits.Inc()
		reply.Encode(p.gen) //nolint:errcheck
		return nil
	}
	cEpochCacheMisses.Inc()
	snap := make([][]float64, len(p.ports))
	for r := range p.ports {
		want := p.side.Map.LocalLen(r)
		if want == 0 {
			continue
		}
		// A SnapshotPort hands over retain-forever storage; a plain
		// DistArrayPort's chunk may be mutated in place by the next
		// timestep, so it is copied before entering the generation map.
		var data []float64
		if sp, ok := p.ports[r].(ccoll.SnapshotPort); ok {
			data = sp.Snapshot()
		} else {
			data = append([]float64(nil), p.ports[r].LocalData()...)
		}
		if len(data) < want {
			return fmt.Errorf("collective: %q rank %d holds %d elements, map says %d",
				p.name, r, len(data), want)
		}
		snap[r] = data[:want]
	}
	p.gens[p.gen] = &provGen{snap: snap, frames: make(map[frameKey]*transport.SharedBuf)}
	p.genOrder = append(p.genOrder, p.gen)
	if len(p.genOrder) > maxEpochsPerPlan {
		evict := p.genOrder[0]
		p.genOrder = p.genOrder[1:]
		p.gens[evict].release(0)
		delete(p.gens, evict)
	}
	reply.Encode(p.gen) //nolint:errcheck
	return nil
}

// chunk(int64 planID, int64 epoch, int32 src, int32 dst, int32 lo,
// int32 count) → []float64.
//
// Serves elements [lo, lo+count) of the (src → dst) pair's packed stream
// from the epoch's snapshot. The window is packed once into a
// reference-counted shared buffer and spliced into every subscriber's reply
// zero-copy: N subscribers cost one pack and N writev references, which is
// what makes publisher CPU sublinear in subscriber count. A pack race
// between concurrent subscribers is resolved in favor of the first insert
// so every reply shares one buffer.
func (p *Publisher) chunk(args []any, reply *orb.Encoder) error {
	if len(args) != 6 {
		return fmt.Errorf("collective: chunk wants (planID, epoch, src, dst, lo, count), got %d args", len(args))
	}
	id, ok0 := args[0].(int64)
	ep, ok1 := args[1].(int64)
	src, ok2 := args[2].(int32)
	dst, ok3 := args[3].(int32)
	lo, ok4 := args[4].(int32)
	count, ok5 := args[5].(int32)
	if !ok0 || !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return fmt.Errorf("collective: chunk argument types %T,%T,%T,%T,%T,%T", args[0], args[1], args[2], args[3], args[4], args[5])
	}
	k := frameKey{plan: id, src: src, dst: dst, lo: lo, count: count}
	p.mu.Lock()
	plan, err := p.lookupPlan(id)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	g := p.gens[ep]
	if g == nil {
		p.mu.Unlock()
		return fmt.Errorf("%s %d of plan %d", staleEpochMsg, ep, id)
	}
	// A cached frame's window was validated when it was packed.
	if b := g.frames[k]; b != nil {
		err := reply.AppendSharedFloat64s(b)
		p.mu.Unlock()
		cFrameCacheHits.Inc()
		return served(err, count)
	}
	p.mu.Unlock()
	if src < 0 || int(src) >= len(p.ports) {
		return fmt.Errorf("collective: chunk names provider rank %d of %d", src, len(p.ports))
	}
	pair, ok := plan.Pair(int(src), len(p.ports)+int(dst))
	if !ok {
		return fmt.Errorf("collective: plan %d moves no data %d→%d", id, src, dst)
	}
	if lo < 0 || count < 0 || int(lo)+int(count) > pair.Total() {
		return fmt.Errorf("collective: chunk [%d,%d) of %d-element stream", lo, int(lo)+int(count), pair.Total())
	}
	// The snapshot is immutable once published into the generation map, so
	// packing proceeds outside the lock and chunk calls from a pipelined
	// consumer serve concurrently.
	cFrameCacheMisses.Inc()
	buf := transport.NewSharedBuf(8 * int(count))
	defer buf.Release() // the reply and the cache each take their own reference
	if err := pair.PackRangeBytes(g.snap[src], int(lo), int(lo)+int(count), buf.Bytes()); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := g.frames[k]; b != nil {
		return served(reply.AppendSharedFloat64s(b), count)
	}
	// Cache only while the plan and generation are still live; a frame
	// packed across their eviction is served once and dropped.
	if p.plans[id] == plan && p.gens[ep] == g {
		buf.Retain()
		g.frames[k] = buf
	}
	return served(reply.AppendSharedFloat64s(buf), count)
}

// served counts one chunk reply of count elements unless err is set.
func served(err error, count int32) error {
	if err == nil {
		cChunksServed.Inc()
		cBytesServed.Add(uint64(8 * int(count)))
	}
	return err
}
