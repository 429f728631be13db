// Package collective implements distributed collective ports: the
// cross-process form of the paper's §6.3 M→N redistribution, and the one
// scenario Figure 1 actually draws — a visualization tool in a *different
// OS process* attaching to the simulation cohort's distributed array.
// It composes the two halves the repo already has: the collective
// scheduler (repro/internal/cca/collective) plans which index runs move
// between which cohort ranks, and the supervised multiplexed ORB
// (repro/internal/orb over repro/internal/transport) moves bytes between
// processes.
//
// # Protocol
//
// A provider process Publishes a cohort's DistArrayPorts on the reserved
// ORB key "collective/<name>" as an orb.Handler. A consumer Attaches by
// dialing a supervised client and performing a plan exchange: it sends its
// own distribution as a canonical run list, the provider answers with its
// run list and a plan ID, and *both* sides construct the identical
// collective.Plan from the two descriptors (cohorts rebased into one
// synthetic world: provider ranks 0..M−1, consumer ranks M..M+N−1). From
// then on the consumer addresses any [lo,hi) element window of any
// (src,dst) pair's packed message — the schedule's offsets are plan
// arithmetic both sides agree on, so no index metadata ever crosses the
// wire with the data.
//
// The provider owns an explicit generation: Publisher.Update runs a
// timestep's mutation and opens the next generation atomically with
// respect to snapshots (Advance is Update with no mutation), and the
// epoch a pull sees is that generation. Each Pull calls "begin", which
// snapshots the provider cohort's chunks on the generation's first begin
// and joins the existing snapshot afterwards — so a mid-step simulation
// can't tear a frame, every subscriber of a generation sees the same
// timestep whatever its distribution, and a provider that never Updates
// keeps serving the data of its first begin. The pull then streams the
// intersecting runs as "chunk" frames: each (plan, pair, window) is packed
// once per generation into a ref-counted transport.SharedBuf spliced
// zero-copy into every subscriber's reply, and scattered straight out of
// the raw reply frame on the consumer. Identical consumer distributions
// deduplicate onto one plan, so N uniform subscribers cost one pack plus N
// writev references. Those three methods — exchange, begin, chunk — are
// the whole protocol; nothing closes an epoch. Chunks default to
// 16·transport.CoalesceCutoff bytes so every chunk frame rides the
// zero-copy writev path, and a credit window (default
// transport.MaxFlushWindow·transport.CoalesceCutoff bytes) bounds the
// bytes in flight per connection while keeping the multiplexed pipeline
// full.
//
// # Failure semantics
//
// The consumer's connection is an orb.Supervised client with every
// protocol method marked idempotent: a severed connection mid-pull
// surfaces as ConnectionDegraded (via Options.Supervisor.OnState, which
// InstallRemoteDistArray bridges to framework health events exactly like
// scalar remote ports), redials with backoff, and the interrupted chunk
// call retries on the healed connection. Provider-side state is
// soft: plans and generations are bounded LRU caches, and a consumer that
// finds its plan or epoch evicted (or the provider restarted) gets a
// typed "unknown plan"/"unknown epoch" error and transparently
// re-exchanges — at most wasted work, never wrong data, and never two
// generations mixed in one pull.
//
// Experiment E11 (BenchmarkE11_CollectivePull, EXPERIMENTS.md) measures the
// chunked path against a single-memcpy lower bound and E13 prices the
// fan-out at 1000 standing supervised subscribers (DESIGN.md §11); the
// examples/distviz demo runs the full two-process scenario including an
// injected sever.
package collective

import (
	"fmt"
	"strings"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// KeyPrefix is the reserved ORB key namespace for published collective
// ports: a distributed array named "wave" is served at "collective/wave".
const KeyPrefix = "collective/"

// Key returns the ORB object key a published name is served under.
func Key(name string) string { return KeyPrefix + name }

// Wire-visible error prefixes. They cross the ORB as exception strings, so
// the consumer recognizes them by prefix (IsStale) — the CDR has no typed
// exceptions, exactly like CORBA minor codes.
const (
	stalePlanMsg  = "collective: unknown plan"
	staleEpochMsg = "collective: unknown epoch"
)

// IsStale reports whether a pull failed because the provider no longer
// holds the consumer's plan or epoch (eviction or provider restart). Pull
// handles this itself by re-exchanging; it is exported for callers driving
// the protocol manually.
func IsStale(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	return strings.Contains(s, stalePlanMsg) || strings.Contains(s, staleEpochMsg)
}

// collective.* observability: bytes and chunks moved, plan-exchange
// latency, and per-pull duration (consumer side); chunks and bytes served
// (provider side).
var (
	cPlanExchanges = obs.NewCounter("collective.plan_exchanges")
	cPulls         = obs.NewCounter("collective.pulls")
	cChunks        = obs.NewCounter("collective.chunks_pulled")
	cBytes         = obs.NewCounter("collective.bytes_pulled")
	cChunksServed  = obs.NewCounter("collective.chunks_served")
	cBytesServed   = obs.NewCounter("collective.bytes_served")
	hExchangeNs    = obs.NewHistogram("collective.plan_exchange_ns")
	hPullNs        = obs.NewHistogram("collective.pull_ns")

	// Publisher cache instruments: plan dedup hits on exchange, generation
	// snapshot reuse on begin, and packed-frame reuse on chunk. The frame
	// hit rate is the fan-out amortization number — E13 asserts it exceeds
	// 90% at steady state.
	cPlanCacheHits    = obs.NewCounter("collective.plan_cache_hits")
	cEpochCacheHits   = obs.NewCounter("collective.epoch_cache_hits")
	cEpochCacheMisses = obs.NewCounter("collective.epoch_cache_misses")
	cFrameCacheHits   = obs.NewCounter("collective.frame_cache_hits")
	cFrameCacheMisses = obs.NewCounter("collective.frame_cache_misses")
)

// windowBytes bounds the chunk bytes in flight per connection — the credit
// window: transport.MaxFlushWindow · transport.CoalesceCutoff (256 KiB),
// the volume the coalescer's adaptive flush window is itself sized to
// batch.
const windowBytes = transport.MaxFlushWindow * transport.CoalesceCutoff

// Options tunes a consumer attachment. The zero value is usable.
type Options struct {
	// ChunkBytes is the bulk-frame payload size. Default
	// 16·transport.CoalesceCutoff (64 KiB): comfortably above the
	// coalescer's copy/zero-copy boundary, so every chunk frame is
	// written zero-copy, and small enough that several chunks pipeline
	// inside the credit window.
	ChunkBytes int
	// Supervisor tunes the underlying self-healing client. Idempotent
	// defaults to orb.AllIdempotent — every protocol method is a read or
	// an idempotent re-registration, so chunk pulls retry transparently
	// across redials. OnState observes connection health transitions.
	Supervisor orb.SupervisorOptions
}

func (o Options) withDefaults() Options {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 16 * transport.CoalesceCutoff
	}
	o.ChunkBytes = o.ChunkBytes &^ 7 // whole float64s
	if o.ChunkBytes < 8 {
		o.ChunkBytes = 8
	}
	if o.Supervisor.Idempotent == nil {
		o.Supervisor.Idempotent = orb.AllIdempotent
	}
	return o
}

// encodeRuns flattens a map's canonical runs for the wire: stride-4 int32
// tuples (globalLo, globalHi, rank, localOffset). Distributions beyond
// 2³¹ elements would need a wider encoding; the CDR's int32 slice keeps
// the descriptor compact for every realistic map.
func encodeRuns(m array.DataMap) []int32 {
	runs := m.Runs()
	flat := make([]int32, 0, 4*len(runs))
	for _, r := range runs {
		flat = append(flat, int32(r.Global.Lo), int32(r.Global.Hi), int32(r.Rank), int32(r.Local))
	}
	return flat
}

// decodeRuns reconstructs and validates the peer's map from its wire form.
// own is this side's global length: no plan exists unless the two agree,
// and checking that first (then rank < length) bounds every allocation
// below by our own size instead of by numbers the peer chose.
func decodeRuns(own, n int, flat []int32) (*array.IrregularMap, error) {
	if n != own {
		return nil, fmt.Errorf("%w: peer has %d elements, this side %d (cardinality mismatch)", ccoll.ErrMismatch, n, own)
	}
	if len(flat)%4 != 0 {
		return nil, fmt.Errorf("collective: run list length %d is not a multiple of 4", len(flat))
	}
	runs := make([]array.Run, len(flat)/4)
	for i := range runs {
		runs[i] = array.Run{
			Global: array.IndexRange{Lo: int(flat[4*i]), Hi: int(flat[4*i+1])},
			Rank:   int(flat[4*i+2]),
			Local:  int(flat[4*i+3]),
		}
		if rk := runs[i].Rank; rk < 0 || rk >= max(n, 1) {
			return nil, fmt.Errorf("%w: run %d names rank %d of a %d-element array", array.ErrMap, i, rk, n)
		}
	}
	return array.NewRunsMap(n, runs)
}

// sideOf rebases a validated map into the synthetic cross-process world at
// base (see ccoll.Side.Rebased).
func sideOf(m array.DataMap, base int) ccoll.Side {
	return ccoll.Side{Map: m}.Rebased(base)
}
