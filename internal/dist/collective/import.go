package collective

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// Import is the consumer half of a cross-process collective connection: a
// supervised attachment to a remote Publisher that implements
// ccoll.PullPort for the local consumer cohort. One Import represents all
// N consumer ranks of this process, exactly as one Publisher represents
// the provider's M.
type Import struct {
	key  string
	sup  *orb.Supervised
	opts Options
	cmap array.DataMap // consumer distribution (N ranks)

	mu     sync.Mutex
	m      int // provider cohort size (learned at exchange)
	plan   *ccoll.Plan
	planID int64
}

var _ ccoll.PullPort = (*Import)(nil)

// Attach dials a published collective port under supervision and performs
// the plan exchange. consumer describes how this process's cohort wants
// the data distributed; it may differ arbitrarily from the provider's
// distribution — redistribution is the point of the connection (§6.3).
func Attach(tr transport.Transport, addr, name string, consumer array.DataMap, opts Options) (*Import, error) {
	if consumer == nil {
		return nil, fmt.Errorf("collective: attach %q with nil consumer map", name)
	}
	if err := array.Validate(consumer); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sup, err := orb.DialSupervised(tr, addr, opts.Supervisor)
	if err != nil {
		return nil, err
	}
	imp := &Import{key: Key(name), sup: sup, opts: opts, cmap: consumer}
	if err := imp.exchange(context.Background()); err != nil {
		sup.Close() //nolint:errcheck
		return nil, err
	}
	return imp, nil
}

// Close releases the supervised connection.
func (imp *Import) Close() error { return imp.sup.Close() }

// exchange performs (or repeats) the plan exchange and swaps in the new
// plan. Both sides build the Plan from the same pair of canonical run
// lists, so every later chunk offset is agreed arithmetic.
func (imp *Import) exchange(ctx context.Context) error {
	t0 := obs.Mono()
	res, err := imp.sup.InvokeContext(ctx, imp.key, "exchange",
		int32(imp.cmap.GlobalLen()), encodeRuns(imp.cmap))
	if err != nil {
		return err
	}
	if len(res) != 3 {
		return fmt.Errorf("collective: exchange returned %d values, want 3", len(res))
	}
	id, ok0 := res[0].(int64)
	n, ok1 := res[1].(int32)
	flat, ok2 := res[2].([]int32)
	if !ok0 || !ok1 || !ok2 {
		return fmt.Errorf("collective: exchange returned %T,%T,%T", res[0], res[1], res[2])
	}
	pm, err := decodeRuns(imp.cmap.GlobalLen(), int(n), flat)
	if err != nil {
		return fmt.Errorf("collective: provider sent invalid map: %w", err)
	}
	plan, err := ccoll.NewPlan(sideOf(pm, 0), sideOf(imp.cmap, pm.Ranks()))
	if err != nil {
		return err
	}
	imp.mu.Lock()
	imp.m, imp.plan, imp.planID = pm.Ranks(), plan, id
	imp.mu.Unlock()
	cPlanExchanges.Inc()
	hExchangeNs.Observe(uint64(obs.Mono() - t0))
	return nil
}

// GlobalLen implements ccoll.PullPort.
func (imp *Import) GlobalLen() int { return imp.cmap.GlobalLen() }

// Ranks implements ccoll.PullPort (the consumer cohort size N).
func (imp *Import) Ranks() int { return imp.cmap.Ranks() }

// LocalLen implements ccoll.PullPort.
func (imp *Import) LocalLen(rank int) int { return imp.cmap.LocalLen(rank) }

// ProviderRanks returns the remote cohort size M learned at exchange.
func (imp *Import) ProviderRanks() int {
	imp.mu.Lock()
	defer imp.mu.Unlock()
	return imp.m
}

// Pull implements ccoll.PullPort: it redistributes the provider's current
// data into consumer rank's chunk.
func (imp *Import) Pull(rank int, out []float64) error {
	return imp.PullContext(context.Background(), rank, out)
}

// PullContext is Pull under a caller context (deadline/cancellation).
func (imp *Import) PullContext(ctx context.Context, rank int, out []float64) error {
	if rank < 0 || rank >= imp.cmap.Ranks() {
		return fmt.Errorf("collective: pull for rank %d of %d", rank, imp.cmap.Ranks())
	}
	return imp.pull(ctx, []int{rank}, [][]float64{out})
}

// PullAllInto redistributes one consistent epoch of the provider's data
// into every consumer rank's chunk of outs. Unlike N separate Pull calls —
// between which the provider may Update — all ranks here observe the same
// provider timestep. The chunks are the caller's, so a steady-state
// consumer reuses its frame buffers across frames.
func (imp *Import) PullAllInto(ctx context.Context, outs [][]float64) error {
	n := imp.cmap.Ranks()
	if len(outs) != n {
		return fmt.Errorf("%w: %d chunks for %d ranks", ccoll.ErrBuffer, len(outs), n)
	}
	ranks := make([]int, n)
	for r := range ranks {
		ranks[r] = r
	}
	return imp.pull(ctx, ranks, outs)
}

// maxStaleRetries bounds transparent re-exchange after the provider
// evicted (or forgot, across a restart) our plan or epoch.
const maxStaleRetries = 3

// pull runs one epoch's redistribution for the given consumer ranks,
// re-exchanging and retrying when provider state has gone stale.
func (imp *Import) pull(ctx context.Context, ranks []int, outs [][]float64) error {
	for i, r := range ranks {
		if want := imp.cmap.LocalLen(r); len(outs[i]) != want {
			return fmt.Errorf("%w: rank %d buffer has %d elements, want %d", ccoll.ErrBuffer, r, len(outs[i]), want)
		}
	}
	t0 := obs.Mono()
	var err error
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		if err = imp.pullEpoch(ctx, ranks, outs); !IsStale(err) {
			break
		}
		if exErr := imp.exchange(ctx); exErr != nil {
			return exErr
		}
	}
	if err == nil {
		cPulls.Inc()
		hPullNs.Observe(uint64(obs.Mono() - t0))
	}
	return err
}

// pullEpoch joins the provider's current epoch, streams every (src, dst)
// pair's packed message as credit-windowed chunks, and scatters each chunk
// straight from the raw reply frame. Nothing closes an epoch: it is shared
// by every subscriber and the provider retires it by generation turnover.
// Chunk calls are issued concurrently up to windowBytes of requested
// payload — the multiplexed client pipelines them on one connection, and
// the window keeps a slow consumer from buffering the whole array in flight.
func (imp *Import) pullEpoch(ctx context.Context, ranks []int, outs [][]float64) error {
	imp.mu.Lock()
	plan, planID, m := imp.plan, imp.planID, imp.m
	imp.mu.Unlock()

	res, err := imp.sup.InvokeContext(ctx, imp.key, "begin", planID)
	if err != nil {
		return err
	}
	if len(res) != 1 {
		return fmt.Errorf("collective: begin returned %d values, want 1", len(res))
	}
	epoch, ok := res[0].(int64)
	if !ok {
		return fmt.Errorf("collective: begin returned %T, want int64", res[0])
	}

	type chunkReq struct {
		src, dst  int // world ranks
		lo, count int // packed-stream window
		out       []float64
	}
	var reqs []chunkReq
	chunkElems := imp.opts.ChunkBytes / 8
	for i, r := range ranks {
		dstWorld := m + r
		// In-process rank-local copies cannot occur here: provider world
		// ranks 0..M−1 and consumer world ranks M.. are disjoint, so the
		// plan routes every element through a pair message.
		for _, src := range plan.RecvFrom(dstWorld) {
			pair, ok := plan.Pair(src, dstWorld)
			if !ok {
				continue
			}
			for lo := 0; lo < pair.Total(); lo += chunkElems {
				count := pair.Total() - lo
				if count > chunkElems {
					count = chunkElems
				}
				reqs = append(reqs, chunkReq{src: src, dst: r, lo: lo, count: count, out: outs[i]})
			}
		}
	}

	inflight := windowBytes / imp.opts.ChunkBytes
	if inflight < 1 {
		inflight = 1
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, inflight)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(e error) {
		errOnce.Do(func() { firstErr = e; cancel() })
	}
	for _, rq := range reqs {
		select {
		case sem <- struct{}{}:
		case <-cctx.Done():
		}
		if cctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(rq chunkReq) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := imp.pullChunk(cctx, plan, planID, epoch, m, rq.src, rq.dst, rq.lo, rq.count, rq.out); err != nil {
				fail(err)
			}
		}(rq)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// pullChunk fetches one chunk and scatters it into out. The reply frame is
// never decoded into a []float64: RawFloat64s views the payload in place
// and UnpackBytes scatters straight into destination storage — the
// consumer side's single copy.
func (imp *Import) pullChunk(ctx context.Context, plan *ccoll.Plan, planID int64, epoch int64, m, src, dst, lo, count int, out []float64) error {
	rep, err := imp.sup.InvokeRawContext(ctx, imp.key, "chunk",
		planID, epoch, int32(src), int32(dst), int32(lo), int32(count))
	if err != nil {
		return err
	}
	defer rep.Release()
	raw, err := orb.NewDecoder(rep.Results).RawFloat64s()
	if err != nil {
		return err
	}
	if len(raw) != 8*count {
		return fmt.Errorf("collective: chunk [%d,+%d) reply holds %d bytes, want %d", lo, count, len(raw), 8*count)
	}
	pair, ok := plan.Pair(src, m+dst)
	if !ok {
		return fmt.Errorf("collective: no %d→%d pair in plan %d", src, dst, planID)
	}
	if err := pair.UnpackBytes(raw, lo, out); err != nil {
		return err
	}
	cChunks.Inc()
	cBytes.Add(uint64(len(raw)))
	return nil
}
