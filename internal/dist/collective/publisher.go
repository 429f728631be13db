package collective

import (
	"encoding/binary"
	"fmt"
	"sync"

	ccoll "repro/internal/cca/collective"
	"repro/internal/orb"
	"repro/internal/transport"
)

// Provider-side cache bounds. Plans and epochs are soft state: a consumer
// whose entry was evicted re-exchanges (IsStale), so these caps only bound
// memory against vanished consumers, never correctness.
const (
	maxPlans         = 8
	maxEpochsPerPlan = 4
)

// frameKey identifies one packed chunk frame within an epoch: the
// (src,dst) pair plus the [lo, lo+count) element window. Subscribers with
// the same plan and ChunkBytes ask for byte-identical windows, so the key
// is exact — no partial-overlap handling.
type frameKey struct {
	src, dst, lo, count int32
}

// provEpoch is one epoch's snapshot plus (in epoch-cache mode) its packed
// frame cache. snap is immutable once published; frames is guarded by mu
// because concurrent subscribers populate it while others read.
type provEpoch struct {
	snap [][]float64
	gen  int64 // publisher generation at snapshot time (0 in legacy mode)

	mu     sync.Mutex
	frames map[frameKey]*transport.SharedBuf
}

// releaseFrames drops the epoch's cached frame references. In-flight
// sends hold their own references, so eviction never tears a write.
func (e *provEpoch) releaseFrames() {
	e.mu.Lock()
	for _, b := range e.frames {
		b.Release()
	}
	e.frames = nil
	e.mu.Unlock()
}

// provPlan is one exchanged redistribution plan plus its live epoch
// snapshots. In epoch-cache mode the plan is shared by every consumer
// whose distribution digests identically (key), so one epoch serves the
// whole subscriber fleet.
type provPlan struct {
	plan *ccoll.Plan
	key  string // dedup digest; "" in legacy mode

	nextEpoch int64
	// epochs holds snapshots keyed by epoch ID; epochOrder is LRU, oldest
	// first.
	epochs     map[int64]*provEpoch
	epochOrder []int64
}

// Publisher serves a cohort of DistArrayPorts as a dynamic servant on the
// reserved key Key(name): the provider half of a cross-process collective
// connection. One Publisher represents the whole M-rank cohort — ports[i]
// is cohort rank i — mirroring how an SPMD component's port is logically
// one port exposed by every rank (§6.3).
//
// All servant methods are driven by remote consumers; Publisher itself is
// safe for concurrent dispatch.
type Publisher struct {
	name  string
	oa    *orb.ObjectAdapter
	ports []ccoll.DistArrayPort
	side  ccoll.Side // provider side rebased to world ranks 0..M−1
	wire  []int32    // side's canonical runs, wire form
	cache bool       // WithEpochCache: dedup plans, share epochs, cache frames

	mu        sync.Mutex
	closed    bool
	gen       int64 // epoch-cache generation; Advance bumps it
	nextPlan  int64
	plans     map[int64]*provPlan
	planKeys  map[string]int64 // digest → plan ID (epoch-cache mode)
	planOrder []int64          // LRU, oldest first
}

// PublishOption configures a Publisher.
type PublishOption func(*Publisher)

// WithEpochCache turns on the high-fan-out serving tier:
//
//   - plan dedup: consumers presenting the same distribution share one
//     plan ID, so a thousand identical subscribers cost one plan;
//   - epoch sharing: "begin" returns the live epoch of the current
//     generation instead of snapshotting per consumer — every subscriber
//     of a generation sees the same frame;
//   - frame caching: each chunk window is packed once into a
//     reference-counted buffer and spliced zero-copy into every
//     subscriber's reply.
//
// The publisher must call Advance after mutating the underlying arrays;
// between Advances, pulls observe the cached snapshot. Without this
// option every begin snapshots fresh state (one-consumer-one-epoch
// legacy semantics) and Advance is a no-op.
func WithEpochCache() PublishOption {
	return func(p *Publisher) {
		p.cache = true
		p.gen = 1
		p.planKeys = make(map[string]int64)
	}
}

// Publish validates the cohort and registers it on oa under Key(name).
// Every port must describe the same distribution (same map, ports[i]
// serving cohort rank i); inconsistent sides — the paper's port-information
// consistency hazard for parallel components — are rejected here rather
// than surfacing as silent data corruption at the first pull.
func Publish(oa *orb.ObjectAdapter, name string, ports []ccoll.DistArrayPort, opts ...PublishOption) (*Publisher, error) {
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
		if mi == nil || mi.GlobalLen() != m.GlobalLen() || !int32sEqual(encodeRuns(mi), wire) {
			return nil, fmt.Errorf("collective: publish %q: rank %d describes a different distribution", name, i)
		}
	}
	p := &Publisher{
		name:  name,
		oa:    oa,
		ports: ports,
		side:  sideOf(m, 0),
		wire:  wire,
		plans: make(map[int64]*provPlan),
	}
	for _, o := range opts {
		o(p)
	}
	oa.RegisterDynamic(Key(name), p.handle)
	return p, nil
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Ranks returns the provider cohort size M.
func (p *Publisher) Ranks() int { return len(p.ports) }

// Advance declares the published arrays mutated: the next begin on any
// plan snapshots fresh data instead of serving the live cached epoch.
// Call it once per timestep (after the mutation), not per subscriber —
// it is the epoch cache's only invalidation point. No-op without
// WithEpochCache. A mutation that rewrites more than one rank while
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
	if p.cache {
		p.gen++
	}
}

// Close unregisters the servant and drops all plan/epoch state. In-flight
// consumers observe stale-plan errors on their next call and re-exchange
// against whatever replaces this publisher (or fail if nothing does).
func (p *Publisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, pp := range p.plans {
		for _, ep := range pp.epochs {
			ep.releaseFrames()
		}
	}
	p.plans = nil
	p.planKeys = nil
	p.planOrder = nil
	p.oa.Unregister(Key(p.name))
}

// handle is the dynamic servant: the DSI-style dispatch target for every
// protocol method on Key(name). reply is nil only for the oneway "end".
func (p *Publisher) handle(method string, args []any, reply *orb.Encoder) error {
	switch method {
	case "describe":
		return p.describe(args, reply)
	case "exchange":
		return p.exchange(args, reply)
	case "begin":
		return p.begin(args, reply)
	case "chunk":
		return p.chunk(args, reply)
	case "end":
		return p.end(args)
	default:
		return fmt.Errorf("collective: %q has no method %q", p.name, method)
	}
}

// describe() → (int32 globalLen, []int32 providerRuns). Read-only probe for
// tools that want the provider's distribution without committing to a plan.
func (p *Publisher) describe(args []any, reply *orb.Encoder) error {
	if len(args) != 0 {
		return fmt.Errorf("collective: describe takes no arguments, got %d", len(args))
	}
	reply.Encode(int32(p.side.Map.GlobalLen())) //nolint:errcheck
	reply.Encode(p.wire)                        //nolint:errcheck
	return nil
}

// planDigest is the dedup key for an exchanged consumer distribution:
// global length plus the canonical run list, byte-packed. Two consumers
// with equal digests build byte-identical plans, so they can share one.
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
// can build the byte-identical plan locally. In epoch-cache mode an
// identical distribution resolves to the already-cached plan, so a fleet
// of uniform subscribers shares one plan and one epoch stream.
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
	answer := func(id int64) {
		reply.Encode(id)                            //nolint:errcheck
		reply.Encode(int32(p.side.Map.GlobalLen())) //nolint:errcheck
		reply.Encode(p.wire)                        //nolint:errcheck
	}
	var digest string
	if p.cache {
		digest = planDigest(n, flat)
		p.mu.Lock()
		if !p.closed {
			if id, ok := p.planKeys[digest]; ok {
				if _, err := p.lookupPlan(id); err == nil {
					cPlanCacheHits.Inc()
					answer(id)
					p.mu.Unlock()
					return nil
				}
			}
		}
		p.mu.Unlock()
	}
	cm, err := decodeRuns(int(n), flat)
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
	if p.cache {
		// Re-check under the lock: a concurrent exchange of the same
		// distribution may have won the build race.
		if id, ok := p.planKeys[digest]; ok {
			if _, err := p.lookupPlan(id); err == nil {
				cPlanCacheHits.Inc()
				answer(id)
				return nil
			}
		}
	}
	p.nextPlan++
	id := p.nextPlan
	p.plans[id] = &provPlan{plan: plan, key: digest, epochs: make(map[int64]*provEpoch)}
	if p.cache {
		p.planKeys[digest] = id
	}
	p.planOrder = append(p.planOrder, id)
	for len(p.planOrder) > maxPlans {
		evict := p.planOrder[0]
		p.planOrder = p.planOrder[1:]
		if pp := p.plans[evict]; pp != nil {
			for _, ep := range pp.epochs {
				ep.releaseFrames()
			}
			if pp.key != "" && p.planKeys[pp.key] == evict {
				delete(p.planKeys, pp.key)
			}
		}
		delete(p.plans, evict)
	}
	answer(id)
	return nil
}

// lookupPlan fetches a live plan and marks it most-recently-used.
func (p *Publisher) lookupPlan(id int64) (*provPlan, error) {
	pp := p.plans[id]
	if pp == nil {
		return nil, fmt.Errorf("%s %d", stalePlanMsg, id)
	}
	for i, v := range p.planOrder {
		if v == id {
			p.planOrder = append(append(p.planOrder[:i:i], p.planOrder[i+1:]...), id)
			break
		}
	}
	return pp, nil
}

// begin(int64 planID) → (int64 epoch). Snapshots every provider rank's
// chunk the plan reads, so one pull observes a single consistent timestep
// even while the simulation keeps mutating its arrays. In epoch-cache
// mode, a live epoch of the current generation is returned as-is: the
// snapshot (and its packed frames) amortizes over every subscriber until
// the publisher Advances.
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
	pp, err := p.lookupPlan(id)
	if err != nil {
		return err
	}
	if p.cache {
		for i := len(pp.epochOrder) - 1; i >= 0; i-- {
			ep := pp.epochOrder[i]
			if e := pp.epochs[ep]; e != nil && e.gen == p.gen {
				cEpochCacheHits.Inc()
				reply.Encode(ep) //nolint:errcheck
				return nil
			}
		}
		cEpochCacheMisses.Inc()
	}
	snap := make([][]float64, len(p.ports))
	for r := range p.ports {
		want := pp.plan.SrcLocalLen(r)
		if want == 0 {
			continue
		}
		// A SnapshotPort hands over retain-forever storage; a plain
		// DistArrayPort's chunk may be mutated in place by the next
		// timestep, so it is copied before entering the epoch map.
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
	pp.nextEpoch++
	ep := pp.nextEpoch
	e := &provEpoch{snap: snap}
	if p.cache {
		e.gen = p.gen
		e.frames = make(map[frameKey]*transport.SharedBuf)
	}
	pp.epochs[ep] = e
	pp.epochOrder = append(pp.epochOrder, ep)
	for len(pp.epochOrder) > maxEpochsPerPlan {
		evict := pp.epochOrder[0]
		pp.epochOrder = pp.epochOrder[1:]
		if old := pp.epochs[evict]; old != nil {
			old.releaseFrames()
		}
		delete(pp.epochs, evict)
	}
	reply.Encode(ep) //nolint:errcheck
	return nil
}

// chunk(int64 planID, int64 epoch, int32 src, int32 dst, int32 lo,
// int32 count) → []float64.
//
// Serves elements [lo, lo+count) of the (src → dst) pair's packed stream
// from the epoch snapshot. In legacy mode the payload is packed directly
// into the reply encoder's grown span (Float64SliceSpan + PackRangeBytes),
// so serving a chunk is exactly one pass over the data. In epoch-cache
// mode the window is packed once into a reference-counted shared buffer
// and spliced into every subscriber's reply zero-copy: N subscribers cost
// one pack and N writev references, which is what makes publisher CPU
// sublinear in subscriber count.
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
	p.mu.Lock()
	pp, err := p.lookupPlan(id)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	epoch := pp.epochs[ep]
	if epoch == nil {
		p.mu.Unlock()
		err := fmt.Errorf("%s %d of plan %d", staleEpochMsg, ep, id)
		return err
	}
	plan := pp.plan
	p.mu.Unlock()
	// Snapshot slices are immutable once published into the epoch map, so
	// packing proceeds outside the lock and chunk calls from a pipelined
	// consumer serve concurrently.
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
	if p.cache {
		if err := p.chunkShared(epoch, pair, frameKey{src: src, dst: dst, lo: lo, count: count}, reply); err != nil {
			return err
		}
	} else {
		span := reply.Float64SliceSpan(int(count))
		if err := pair.PackRangeBytes(epoch.snap[src], int(lo), int(lo)+int(count), span); err != nil {
			return err
		}
	}
	cChunksServed.Inc()
	cBytesServed.Add(uint64(8 * int(count)))
	return nil
}

// chunkShared serves one chunk window through the epoch's frame cache:
// hit → splice the cached buffer; miss → pack once (outside the cache
// lock), publish, splice. A pack race between concurrent subscribers is
// resolved in favor of the first insert so every reply shares one buffer.
func (p *Publisher) chunkShared(epoch *provEpoch, pair ccoll.PairStream, k frameKey, reply *orb.Encoder) error {
	epoch.mu.Lock()
	if b := epoch.frames[k]; b != nil {
		err := reply.AppendSharedFloat64s(b)
		epoch.mu.Unlock()
		cFrameCacheHits.Inc()
		return err
	}
	epoch.mu.Unlock()
	cFrameCacheMisses.Inc()
	buf := transport.NewSharedBuf(8 * int(k.count))
	if err := pair.PackRangeBytes(epoch.snap[k.src], int(k.lo), int(k.lo)+int(k.count), buf.Bytes()); err != nil {
		buf.Release()
		return err
	}
	epoch.mu.Lock()
	if b := epoch.frames[k]; b != nil {
		// Lost the pack race: serve the winner so subscribers share bytes.
		err := reply.AppendSharedFloat64s(b)
		epoch.mu.Unlock()
		buf.Release()
		return err
	}
	err := reply.AppendSharedFloat64s(buf)
	cached := false
	if err == nil && epoch.frames != nil {
		epoch.frames[k] = buf // the cache keeps our reference
		cached = true
	}
	epoch.mu.Unlock()
	if !cached {
		// Epoch evicted mid-pack (or append failed): the reply still
		// holds its own reference; drop ours.
		buf.Release()
	}
	return err
}

// end(int64 planID, int64 epoch) — oneway. In legacy mode it releases the
// per-consumer epoch snapshot promptly; a lost "end" is harmless because
// epochs are LRU-evicted. In epoch-cache mode the epoch is shared by
// every subscriber, so end is a no-op and generation turnover (Advance)
// plus the LRU governs epoch lifetime.
func (p *Publisher) end(args []any) error {
	if len(args) != 2 {
		return fmt.Errorf("collective: end wants (planID, epoch), got %d args", len(args))
	}
	id, ok0 := args[0].(int64)
	ep, ok1 := args[1].(int64)
	if !ok0 || !ok1 {
		return fmt.Errorf("collective: end argument types %T,%T", args[0], args[1])
	}
	if p.cache {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pp := p.plans[id]; pp != nil {
		if e, live := pp.epochs[ep]; live && e != nil {
			e.releaseFrames()
			delete(pp.epochs, ep)
			for i, v := range pp.epochOrder {
				if v == ep {
					pp.epochOrder = append(pp.epochOrder[:i], pp.epochOrder[i+1:]...)
					break
				}
			}
		}
	}
	return nil
}
