package orb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sidl/arena"
	"repro/internal/sidl/sreflect"
)

// ORB errors.
var (
	ErrNoObject = errors.New("orb: no such object")
	ErrRemote   = errors.New("orb: remote exception")
	ErrBadReply = errors.New("orb: malformed reply")
)

// Handler is the object adapter's one servant kind, in the style of
// CORBA's DSI: it receives the decoded method name and arguments and
// appends its results to the reply encoder. Register builds one from a
// SIDL-reflected implementation; protocol servants (the collective
// publisher, the repository service, the restore hook) are handlers
// written by hand, which lets bulk payloads splice into the reply
// (AppendSharedFloat64s) without a boxed-results copy.
//
// The handler must not retain args past its return (the slice and the
// values it holds are pooled). reply is nil for oneway requests — there is
// nothing to answer. On a non-nil reply the handler appends results with
// reply.Encode; if it returns a non-nil error the partially written
// results are discarded and an error reply is sent instead. Handlers must
// be safe for concurrent calls.
type Handler func(method string, args []any, reply *Encoder) error

// ObjectAdapter is the CORBA-style basic object adapter: it owns the
// servant registry and dispatches decoded requests to handlers by key.
type ObjectAdapter struct {
	mu       sync.RWMutex
	servants map[string]Handler
}

// NewObjectAdapter creates an adapter serving only the supervisor's
// heartbeat key, whose handler does nothing.
func NewObjectAdapter() *ObjectAdapter {
	return &ObjectAdapter{servants: map[string]Handler{
		pingKey: func(string, []any, *Encoder) error { return nil },
	}}
}

// Register exports impl under key with the given type metadata. Methods
// whose Go signature is one of sreflect.CallSink's shapes marshal their
// results straight into the reply; the rest go through Object.Call.
func (oa *ObjectAdapter) Register(key string, info *sreflect.TypeInfo, impl any) error {
	obj, err := sreflect.NewObject(info, impl)
	if err != nil {
		return err
	}
	oa.Handle(key, func(method string, args []any, reply *Encoder) error {
		if reply != nil {
			if handled, err := obj.CallSink(method, args, reply); handled {
				return err
			}
		}
		results, err := obj.Call(method, args...)
		if err != nil || reply == nil {
			return err
		}
		for _, r := range results {
			if err := reply.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
	return nil
}

// Handle exports h under key, replacing any servant already there.
func (oa *ObjectAdapter) Handle(key string, h Handler) {
	oa.mu.Lock()
	oa.servants[key] = h
	oa.mu.Unlock()
}

// Unregister removes an exported object.
func (oa *ObjectAdapter) Unregister(key string) {
	oa.mu.Lock()
	delete(oa.servants, key)
	oa.mu.Unlock()
}

// lookup finds a servant.
func (oa *ObjectAdapter) lookup(key string) (Handler, error) {
	oa.mu.RLock()
	defer oa.mu.RUnlock()
	s, ok := oa.servants[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoObject, key)
	}
	return s, nil
}

// argsPool recycles decoded-argument slices across dispatches. Safe because
// handlers must not retain args (see Handler), and Register's handlers
// return freshly boxed results.
var argsPool = sync.Pool{New: func() any { s := make([]any, 0, 8); return &s }}

func putArgs(p *[]any, used []any) {
	clear(used) // drop value references so boxed arguments can be collected
	*p = used[:0]
	argsPool.Put(p)
}

// dispatchBody decodes a request body (the frame after its correlation
// header), invokes the servant, and encodes the reply frame with its
// correlation header reserved but unstamped. Oneway requests produce a nil
// reply (nothing is sent back) — the SIDL `oneway` semantics used by
// loosely coupled monitor ports.
//
// dispatchBody is safe for concurrent use: the adapter state is
// read-locked per lookup, and servant implementations are required to be
// goroutine-safe when served remotely (the server dispatches two-way
// requests concurrently).
//
// dispatchBody is also the server's one instrumentation point. With
// metrics on, rates and errors are exact on every dispatch and durations
// are a uniform 1-in-8 sample (redSampleMask); the decision is drawn
// before dispatch decodes the method name, hence the shared serverDurTick
// rather than a per-method one. With a trace ID the call also records a
// dispatch span with its exact duration, timestamped from two monotonic
// reads anchored to the wall clock (obs.MonoToWall); recvMono — the read
// loop's arrival clock, 0 for in-process calls — becomes the span's Queue
// (the time the frame waited for a dispatch slot).
//
// The returned encoder comes from the package pool; the caller must stamp
// the correlation ID, send or copy its Bytes, and then release it with
// PutEncoder.
func (oa *ObjectAdapter) dispatchBody(body []byte, oneway bool, trace uint64, recvMono int64) *Encoder {
	metered := obs.MetricsEnabled()
	if trace == 0 && !metered {
		e, _, _, _ := oa.dispatch(body, oneway)
		return e
	}
	sampled := metered && serverDurTick.Add(1)&redSampleMask == 0
	timed := sampled || trace != 0
	var t0 int64
	if timed {
		t0 = obs.Mono()
	}
	e, key, method, err := oa.dispatch(body, oneway)
	var dur uint64
	if timed {
		dur = durNS(obs.Mono() - t0)
	}
	if metered {
		if method == "" {
			// The body died before its method name decoded; there is no
			// method to file RED numbers under.
			cDispatchBadBody.Inc()
		} else {
			red := serverRED(method)
			red.calls.Inc()
			if sampled {
				red.dur.Observe(dur)
			}
			if err != nil {
				red.errs[Classify(err)].Inc()
			}
		}
	}
	if trace != 0 {
		span := obs.Span{Trace: trace, Kind: obs.SpanDispatch, Key: key, Method: method,
			Start: obs.MonoToWall(t0), Dur: time.Duration(dur)}
		if recvMono != 0 {
			span.Queue = time.Duration(durNS(t0 - recvMono))
		}
		if err != nil {
			span.Err = err.Error()
		}
		obs.Tracer.Record(span)
	}
	return e
}

// arenaPool recycles per-dispatch decode arenas. One arena serves one
// dispatch: acquired before argument decode, reset and returned only
// after the reply body is fully encoded, because decoded arguments (and
// any results aliasing them, e.g. an echo) live in its slabs.
var arenaPool = sync.Pool{New: func() any { return new(arena.Arena) }}

// dispatch is the uninstrumented decode → invoke → encode path. It also
// reports the decoded key/method and the failure (if any) that went into
// the reply, for dispatchBody's RED metrics and dispatch span.
//
// Arguments decode through a pooled arena, and Register's handlers
// deliver results of monomorphic servant signatures straight into the
// reply encoder via sreflect.CallSink — together with the pooled encoders,
// frames, and argument slices this makes the steady-state dispatch
// allocation-free. The arena is what makes the long-documented servant
// contract load-bearing: args (and their backing arrays and string bytes)
// are recycled after the call, so servants must not retain them.
func (oa *ObjectAdapter) dispatch(body []byte, oneway bool) (e *Encoder, key, method string, err error) {
	d := NewDecoder(body)
	ar := arenaPool.Get().(*arena.Arena)
	d.setArena(ar)
	argsp := argsPool.Get().(*[]any)
	args := (*argsp)[:0]
	defer func() {
		putArgs(argsp, args)
		ar.Reset()
		arenaPool.Put(ar)
	}()
	key, err = d.decodeStringInterned()
	if err == nil {
		method, err = d.decodeStringInterned()
	}
	for err == nil && d.More() {
		var a any
		a, err = d.Decode()
		args = append(args, a)
	}
	var h Handler
	if err == nil {
		h, err = oa.lookup(key)
	}
	if err == nil {
		if !oneway {
			e = newReply()
			e.Encode(true) //nolint:errcheck // bool always encodes
		}
		if err = h(method, args, e); err != nil && e != nil {
			PutEncoder(e)
		}
	}
	if err != nil && !oneway {
		e = errReply(err)
	}
	return e, key, method, err
}

// InProcessORB is the §3.3 baseline: requests to co-located objects still
// traverse encode → adapter dispatch → dynamic invocation → encode →
// decode, exactly as if they were remote. Experiment E2 measures this
// against a direct-connected CCA port.
type InProcessORB struct {
	OA *ObjectAdapter
}

// NewInProcessORB creates the baseline ORB.
func NewInProcessORB() *InProcessORB {
	return &InProcessORB{OA: NewObjectAdapter()}
}

// Invoke performs a marshaled same-address-space call.
func (o *InProcessORB) Invoke(key, method string, args ...any) ([]any, error) {
	req, err := encodeRequest(onewayID, 0, key, method, args)
	if err != nil {
		return nil, err
	}
	rep := o.OA.dispatchBody(req.Bytes()[frameHeader:], false, 0, 0)
	PutEncoder(req)
	out, err := decodeReply(rep.Bytes()[frameHeader:]) // decodeReply copies every value
	PutEncoder(rep)
	return out, err
}
