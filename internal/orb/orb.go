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

// Servant is an exported object: an implementation bound to its SIDL
// reflection record so the object adapter can dispatch requests by method
// name, or a dynamic handler that interprets requests itself.
type Servant struct {
	Key string
	Obj *sreflect.Object
	Dyn DynamicHandler
}

// DynamicHandler is a CORBA DSI-style servant: it receives the decoded
// method name and arguments and writes its results directly into the reply
// encoder, bypassing SIDL reflection metadata and the boxed-results copy.
// Bulk-transfer protocols (repro/internal/dist/collective) use it to splice
// packed, reference-counted array payloads into the reply.
//
// The handler must not retain args past its return (the slice is pooled).
// reply is nil for oneway requests — there is nothing to answer. On a
// non-nil reply the handler appends results with reply.Encode (or
// AppendSharedFloat64s for bulk payloads); if it returns a non-nil error the
// partially written results are discarded and an error reply is sent
// instead. Handlers must be safe for concurrent calls.
type DynamicHandler func(method string, args []any, reply *Encoder) error

// ObjectAdapter is the CORBA-style basic object adapter: it owns the
// servant registry and dispatches decoded requests by dynamic invocation.
type ObjectAdapter struct {
	mu       sync.RWMutex
	servants map[string]*Servant
}

// NewObjectAdapter creates an empty adapter.
func NewObjectAdapter() *ObjectAdapter {
	return &ObjectAdapter{servants: map[string]*Servant{}}
}

// Register exports impl under key with the given type metadata.
func (oa *ObjectAdapter) Register(key string, info *sreflect.TypeInfo, impl any) error {
	obj, err := sreflect.NewObject(info, impl)
	if err != nil {
		return err
	}
	oa.mu.Lock()
	oa.servants[key] = &Servant{Key: key, Obj: obj}
	oa.mu.Unlock()
	return nil
}

// RegisterDynamic exports a dynamic servant under key: requests are handed
// to h undecoded-by-type (method name plus boxed CDR arguments) and h
// writes the reply body itself. This is the adapter's hook for reserved
// protocol keys — the distributed collective port registers its
// plan-exchange and chunk servant this way.
func (oa *ObjectAdapter) RegisterDynamic(key string, h DynamicHandler) {
	oa.mu.Lock()
	oa.servants[key] = &Servant{Key: key, Dyn: h}
	oa.mu.Unlock()
}

// Unregister removes an exported object.
func (oa *ObjectAdapter) Unregister(key string) {
	oa.mu.Lock()
	delete(oa.servants, key)
	oa.mu.Unlock()
}

// lookup finds a servant.
func (oa *ObjectAdapter) lookup(key string) (*Servant, error) {
	oa.mu.RLock()
	defer oa.mu.RUnlock()
	s, ok := oa.servants[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoObject, key)
	}
	return s, nil
}

// argsPool recycles decoded-argument slices across dispatches. Safe because
// neither Call's fast paths nor the reflect path retain the slice beyond
// the invocation (result values are always freshly boxed).
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
// The returned encoder comes from the package pool; the caller must stamp
// the correlation ID, send or copy its Bytes, and then release it with
// PutEncoder.
func (oa *ObjectAdapter) dispatchBody(body []byte, oneway bool, trace uint64, recvMono int64) *Encoder {
	metered := obs.MetricsEnabled()
	if trace == 0 && !metered {
		e, _, _, _ := oa.dispatch(body, oneway)
		return e
	}
	if trace != 0 {
		return oa.dispatchTraced(body, oneway, trace, metered, recvMono)
	}
	// Metered, untraced: rates and errors are exact on every dispatch;
	// durations are a uniform 1-in-8 sample (redSampleMask) so the two
	// monotonic clock reads stay off the common path. The decision is
	// drawn before dispatch decodes the method name, hence the shared
	// serverDurTick rather than the per-method one.
	var t0 int64
	sampled := serverDurTick.Add(1)&redSampleMask == 0
	if sampled {
		t0 = obs.Mono()
	}
	e, _, method, err := oa.dispatch(body, oneway)
	if method == "" {
		// The body died before its method name decoded; there is no
		// method to file RED numbers under.
		cDispatchBadBody.Inc()
		return e
	}
	red := serverRED(method)
	red.calls.Inc()
	if sampled {
		red.dur.Observe(durNS(obs.Mono() - t0))
	}
	if err != nil {
		red.errs[Classify(err)].Inc()
	}
	return e
}

// dispatchTraced is the traced dispatch path: the span timestamp comes
// from two monotonic reads anchored to the wall clock (obs.MonoToWall),
// and recvMono — the read loop's arrival clock, 0 for in-process calls —
// becomes the span's Queue (the time the frame waited for a dispatch
// slot). RED durations stay 1-in-8 sampled here too; the span already
// carries this call's exact duration.
func (oa *ObjectAdapter) dispatchTraced(body []byte, oneway bool, trace uint64, metered bool, recvMono int64) *Encoder {
	t0 := obs.Mono()
	e, key, method, err := oa.dispatch(body, oneway)
	dur := time.Duration(durNS(obs.Mono() - t0))
	if metered {
		if method == "" {
			cDispatchBadBody.Inc()
		} else {
			red := serverRED(method)
			red.calls.Inc()
			if red.sampleDur() {
				red.dur.Observe(uint64(dur))
			}
			if err != nil {
				red.errs[Classify(err)].Inc()
			}
		}
	}
	span := obs.Span{Trace: trace, Kind: obs.SpanDispatch, Key: key, Method: method,
		Start: obs.MonoToWall(t0), Dur: dur}
	if recvMono != 0 {
		span.Queue = time.Duration(durNS(t0 - recvMono))
	}
	if err != nil {
		span.Err = err.Error()
	}
	obs.Tracer.Record(span)
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
// Arguments decode through a pooled arena, and monomorphic servant
// signatures deliver results straight into the reply encoder via
// sreflect.CallSink — together with the pooled encoders, frames, and
// argument slices this makes the steady-state dispatch allocation-free.
// The arena is what makes the long-documented servant contract
// load-bearing: args (and their backing arrays and string bytes) are
// recycled after the call, so servants must not retain them.
func (oa *ObjectAdapter) dispatch(body []byte, oneway bool) (_ *Encoder, key, method string, _ error) {
	d := NewDecoder(body)
	ar := arenaPool.Get().(*arena.Arena)
	d.setArena(ar)
	defer func() {
		ar.Reset()
		arenaPool.Put(ar)
	}()
	reply := func(e *Encoder) *Encoder {
		if oneway {
			PutEncoder(e)
			return nil
		}
		return e
	}
	key, err := d.decodeStringInterned()
	if err != nil {
		return reply(errReply(err)), key, "", err
	}
	method, err = d.decodeStringInterned()
	if err != nil {
		return reply(errReply(err)), key, "", err
	}
	argsp := argsPool.Get().(*[]any)
	args := (*argsp)[:0]
	for d.More() {
		a, err := d.Decode()
		if err != nil {
			putArgs(argsp, args)
			return reply(errReply(err)), key, method, err
		}
		args = append(args, a)
	}
	sv, err := oa.lookup(key)
	if err != nil {
		putArgs(argsp, args)
		return reply(errReply(err)), key, method, err
	}
	if sv.Dyn != nil {
		if oneway {
			err := sv.Dyn(method, args, nil)
			putArgs(argsp, args)
			return nil, key, method, err
		}
		e := newReply()
		e.Encode(true) //nolint:errcheck // bool always encodes
		err := sv.Dyn(method, args, e)
		putArgs(argsp, args)
		if err != nil {
			PutEncoder(e)
			return errReply(err), key, method, err
		}
		return e, key, method, nil
	}
	if !oneway {
		// Fast path: marshal results as the servant produces them.
		e := newReply()
		e.Encode(true) //nolint:errcheck // bool always encodes
		if handled, err := sv.Obj.CallSink(method, args, e); handled {
			putArgs(argsp, args)
			if err != nil {
				PutEncoder(e)
				return errReply(err), key, method, err
			}
			return e, key, method, nil
		}
		PutEncoder(e)
	}
	results, err := sv.Obj.Call(method, args...)
	putArgs(argsp, args) // callees do not retain the argument slice
	if err != nil {
		return reply(errReply(err)), key, method, err
	}
	if oneway {
		return nil, key, method, nil
	}
	e := newReply()
	e.Encode(true) //nolint:errcheck // bool always encodes
	for _, r := range results {
		if err := e.Encode(r); err != nil {
			e.Reset()
			h := e.grow(frameHeader)
			for i := range h {
				h[i] = 0
			}
			e.Encode(false) //nolint:errcheck // bool always encodes
			e.EncodeString(err.Error())
			return e, key, method, err
		}
	}
	return e, key, method, nil
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
