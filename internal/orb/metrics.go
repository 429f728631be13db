package orb

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// RED metrics for the remote path, per method and per side: rate
// (".calls"), errors by CallError class (".errors.<class>"), duration
// (".duration_ns"). The instruments live in obs.Default under
// "orb.client.method.<m>.*" and "orb.server.method.<m>.*"; redFor caches
// the per-method bundle in a sync.Map so the steady-state lookup is one
// hash probe and no allocation.
type methodRED struct {
	calls *obs.Counter
	dur   *obs.Histogram
	errs  [3]*obs.Counter // indexed by Class
	tick  atomic.Uint32   // client-side duration-sampling tick; see sampleDur
}

// redSampleMask selects which metered calls feed the duration histogram:
// a call samples when its side's tick&redSampleMask == 0 — the client's
// per-method tick (sampleDur), the server's shared serverDurTick. Rates
// and error counts stay exact on every call; durations are a uniform
// 1-in-(mask+1) sample, traced or not, which leaves the quantiles unbiased
// while keeping the clock off the common untraced path (clock reads are
// the single largest per-call instrumentation cost where no vDSO fast path
// exists — see E10). A traced call reads the clock anyway and its span
// carries the exact duration. Tests set the mask to 0 to observe every
// call.
var redSampleMask uint32 = 7

// sampleDur draws the client-side duration-sampling decision for one call.
func (r *methodRED) sampleDur() bool { return r.tick.Add(1)&redSampleMask == 0 }

// durNS clamps a monotonic-clock difference to a histogram value. obs.Mono
// reads can come from the TSC, where residual cross-core skew could make a
// tiny interval read negative; a negative cast to uint64 would land in the
// top histogram bucket and wreck the quantiles.
func durNS(d int64) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// serverDurTick drives the server-side sampling decision, which must be
// made before dispatch decodes the method name, so it is shared across
// methods rather than per-method.
var serverDurTick atomic.Uint32

func newMethodRED(side, method string) *methodRED {
	base := "orb." + side + ".method." + method
	r := &methodRED{
		calls: obs.NewCounter(base + ".calls"),
		dur:   obs.NewHistogram(base + ".duration_ns"),
	}
	for _, c := range []Class{ClassRetryable, ClassTimeout, ClassFatal} {
		r.errs[c] = obs.NewCounter(base + ".errors." + c.String())
	}
	return r
}

var (
	clientREDs sync.Map // method → *methodRED
	serverREDs sync.Map
)

func redFor(m *sync.Map, side, method string) *methodRED {
	if v, ok := m.Load(method); ok {
		return v.(*methodRED)
	}
	v, _ := m.LoadOrStore(method, newMethodRED(side, method))
	return v.(*methodRED)
}

func clientRED(method string) *methodRED { return redFor(&clientREDs, "client", method) }
func serverRED(method string) *methodRED { return redFor(&serverREDs, "server", method) }

// Aggregate instruments (registered once; Add/Inc gate themselves).
var (
	// gClientInflight counts remote calls currently awaiting their reply —
	// the in-flight gauge the multiplexed client exposes.
	gClientInflight = obs.NewGauge("orb.client.inflight")
	// cClientOneways counts fire-and-forget sends.
	cClientOneways = obs.NewCounter("orb.client.oneways")
	// cDispatchBadBody counts request bodies whose key/method failed to
	// decode (no method name to file the error under).
	cDispatchBadBody = obs.NewCounter("orb.server.bad_bodies")

	// Supervised-client instruments: one state gauge per ConnState (the
	// breaker-state gauges — a supervised connection contributes 1 to
	// exactly one of them), plus counters for retries, redials, and
	// circuit-breaker opens.
	gSupStates = [3]*obs.Gauge{
		StateHealthy:  obs.NewGauge("orb.supervised.healthy"),
		StateDegraded: obs.NewGauge("orb.supervised.degraded"),
		StateBroken:   obs.NewGauge("orb.supervised.broken"),
	}
	cSupRetries      = obs.NewCounter("orb.supervised.retries")
	cSupRedials      = obs.NewCounter("orb.supervised.redials")
	cSupBreakerOpens = obs.NewCounter("orb.supervised.breaker_opens")
	// Crash-recovery instruments: RestartPolicy relaunch attempts,
	// checkpoint replays that reached a fresh servant, and heartbeats the
	// supervisor withheld because the circuit was open.
	cSupRestarts             = obs.NewCounter("orb.supervised.restarts")
	cSupRestores             = obs.NewCounter("orb.supervised.restore_replays")
	cSupHeartbeatsSuppressed = obs.NewCounter("orb.supervised.heartbeats_suppressed")

	// Serving-tier instruments: load-shed counters on the server's
	// admission control (total sheds plus the reason split), the server's
	// in-flight dispatch gauge, and the supervised client's
	// overload-backoff counter (retries that kept the connection).
	gServerInflight  = obs.NewGauge("orb.server.inflight")
	cServerShed      = obs.NewCounter("orb.server.shed")
	cServerShedQueue = obs.NewCounter("orb.server.shed.queue_full")
	cServerShedDrain = obs.NewCounter("orb.server.shed.draining")
	cSupOverloads    = obs.NewCounter("orb.supervised.overload_backoffs")
)
