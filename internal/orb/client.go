package orb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Client is a multiplexed connection to a remote ORB server. Any number of
// goroutines may Invoke concurrently: each call is assigned a correlation
// ID and a completion channel, the request frames share the connection
// (pipelined — concurrent calls cost one round trip together, not one
// each), and a single demux goroutine routes reply frames to their waiting
// callers by ID. On connection loss every pending and future call fails
// with the transport error.
type Client struct {
	conn   transport.Conn
	nextID atomic.Uint64

	mu    sync.Mutex
	calls map[uint64]chan muxReply
	err   error         // sticky: set once the demux loop exits
	done  chan struct{} // closed by fail(); see Done
}

// muxReply is one demultiplexed completion: a reply frame (still carrying
// its correlation header) or a connection-level error.
type muxReply struct {
	frame []byte
	err   error
}

// replyChanPool recycles completion channels across calls. A channel is
// only returned to the pool by a caller that knows no send can still be
// pending on it: after receiving its completion, or after forgetting the
// call before the demux loop claimed it.
var replyChanPool = sync.Pool{New: func() any { return make(chan muxReply, 1) }}

// DialClient connects to a served address and starts the reply
// demultiplexer.
func DialClient(tr transport.Transport, addr string) (*Client, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// newClient wraps an established connection and starts its demultiplexer.
func newClient(conn transport.Conn) *Client {
	c := &Client{conn: conn, calls: map[uint64]chan muxReply{}, done: make(chan struct{})}
	go c.demux()
	return c
}

// Done is closed when the connection has died (the demux loop exited) and
// every pending and future call fails. Supervisors select on it to redial
// proactively instead of waiting for the next call to fail.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports the sticky connection error, or nil while the client is live.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// demux routes reply frames to per-call completion channels until the
// connection dies, then fails everything still pending.
func (c *Client) demux() {
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			c.fail(err)
			return
		}
		id, _, _, ok := splitFrame(frame)
		if !ok || id == onewayID {
			transport.ReleaseFrame(frame)
			c.conn.Close()
			c.fail(fmt.Errorf("%w: reply frame without correlation ID", ErrBadReply))
			return
		}
		c.mu.Lock()
		ch := c.calls[id]
		delete(c.calls, id)
		c.mu.Unlock()
		if ch == nil {
			// Cancelled or timed-out call: the late reply is discarded.
			transport.ReleaseFrame(frame)
			continue
		}
		ch <- muxReply{frame: frame} // buffered, never blocks
	}
}

// fail records the terminal error and completes every pending call with it.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	for id, ch := range c.calls {
		delete(c.calls, id)
		ch <- muxReply{err: c.err}
	}
	c.mu.Unlock()
}

// forget abandons a pending call; it reports false when the demux loop
// already claimed the call (a completion has been or is being delivered).
func (c *Client) forget(id uint64) bool {
	c.mu.Lock()
	_, ok := c.calls[id]
	delete(c.calls, id)
	c.mu.Unlock()
	return ok
}

// Invoke performs a remote call. Concurrent Invokes on one client share the
// connection and complete independently, in any order.
func (c *Client) Invoke(key, method string, args ...any) ([]any, error) {
	return c.InvokeContext(context.Background(), key, method, args...)
}

// InvokeContext performs a remote call honoring ctx for timeout and
// cancellation. A cancelled call is abandoned client-side only: the server
// still executes it, and the demux loop discards the late reply frame.
func (c *Client) InvokeContext(ctx context.Context, key, method string, args ...any) ([]any, error) {
	var out []any
	_, err := c.roundTrip(ctx, key, method, args, &out)
	return out, err
}

// roundTrip is the client's one instrumented two-way call. With out
// non-nil the results are decoded into *out (copied, so the frame is
// released here) and a traced call records a client-call span; with out
// nil they come back undecoded in the RawReply and no span is recorded —
// bulk streams would flood the span ring — though an active trace ID is
// still stamped into the request, so the server's dispatch span joins the
// trace.
//
// With metrics enabled it maintains per-method RED instruments and the
// in-flight gauge; durations are a uniform 1-in-8 sample (redSampleMask)
// whether or not the call is traced, and the span carries the exact
// duration. With both off the overhead is two atomic loads.
func (c *Client) roundTrip(ctx context.Context, key, method string, args []any, out *[]any) (RawReply, error) {
	trace := obs.ActiveTraceID()
	spanned := trace != 0 && out != nil
	var red *methodRED
	sampled := false
	if obs.MetricsEnabled() {
		red = clientRED(method)
		red.calls.Inc()
		gClientInflight.Add(1)
		sampled = red.sampleDur()
	}
	var t0 int64
	if sampled || spanned {
		t0 = obs.Mono()
	}
	var rr RawReply
	frame, err := c.callFrame(ctx, trace, key, method, args)
	if err == nil {
		if out != nil {
			*out, err = decodeReply(frame[frameHeader:])
			transport.ReleaseFrame(frame) // decodeReply copied every value
		} else if rr.Results, err = replyResults(frame[frameHeader:]); err != nil {
			transport.ReleaseFrame(frame)
		} else {
			rr.frame = frame
		}
	}
	var dur uint64
	if sampled || spanned {
		dur = durNS(obs.Mono() - t0)
	}
	if red != nil {
		if sampled {
			red.dur.Observe(dur)
		}
		gClientInflight.Add(-1)
		if err != nil {
			red.errs[Classify(err)].Inc()
		}
	}
	if spanned {
		span := obs.Span{Trace: trace, Kind: obs.SpanClientCall, Key: key, Method: method,
			Start: obs.MonoToWall(t0), Dur: time.Duration(dur)}
		if err != nil {
			span.Err = err.Error()
		}
		obs.Tracer.Record(span)
	}
	return rr, err
}

// callFrame performs one round trip and returns the raw reply frame, header
// still attached; the caller must release it with transport.ReleaseFrame.
func (c *Client) callFrame(ctx context.Context, trace uint64, key, method string, args []any) ([]byte, error) {
	id := c.nextID.Add(1)
	req, err := encodeRequest(id, trace, key, method, args)
	if err != nil {
		return nil, err
	}
	ch := replyChanPool.Get().(chan muxReply)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		PutEncoder(req)
		return nil, err
	}
	c.calls[id] = ch
	c.mu.Unlock()
	err = c.conn.Send(req.Bytes())
	PutEncoder(req)
	if err != nil {
		if !c.forget(id) {
			// The demux claimed the call despite the failed send (e.g. the
			// sticky write error raced a delivered reply); drain it.
			if r := <-ch; r.frame != nil {
				transport.ReleaseFrame(r.frame)
			}
		}
		replyChanPool.Put(ch)
		return nil, err
	}
	if ctx.Done() == nil {
		// Uncancellable context (the Invoke path): a plain receive skips
		// the two-case select machinery.
		r := <-ch
		replyChanPool.Put(ch)
		return r.frame, r.err
	}
	select {
	case r := <-ch:
		replyChanPool.Put(ch)
		return r.frame, r.err
	case <-ctx.Done():
		if !c.forget(id) {
			// The completion raced the cancellation and is guaranteed to
			// arrive; drain it so the frame returns to the pool.
			if r := <-ch; r.frame != nil {
				transport.ReleaseFrame(r.frame)
			}
		}
		replyChanPool.Put(ch)
		return nil, ctx.Err()
	}
}

// InvokeOneway performs a fire-and-forget remote call: the request is sent
// with the reserved oneway correlation ID and no reply is ever produced.
// Delivery is ordered with respect to other calls issued from the same
// goroutine (the server dispatches oneways inline in arrival order), but
// completion is not confirmed — exactly the paper's loosely coupled
// monitor semantics (cca.ports.Monitor.observe is oneway).
func (c *Client) InvokeOneway(key, method string, args ...any) error {
	trace := obs.ActiveTraceID()
	var t0 int64
	if trace != 0 {
		t0 = obs.Mono()
	}
	cClientOneways.Inc()
	req, err := encodeRequest(onewayID, trace, key, method, args)
	if err != nil {
		return err
	}
	c.mu.Lock()
	err = c.err
	c.mu.Unlock()
	if err != nil {
		PutEncoder(req)
		return err
	}
	err = c.conn.Send(req.Bytes())
	PutEncoder(req)
	if trace != 0 {
		span := obs.Span{Trace: trace, Kind: obs.SpanOneway, Key: key, Method: method,
			Start: obs.MonoToWall(t0), Dur: time.Duration(durNS(obs.Mono() - t0))}
		if err != nil {
			span.Err = err.Error()
		}
		obs.Tracer.Record(span)
	}
	return err
}

// RawReply is a successful reply left undecoded: Results is the
// CDR-encoded results portion of the reply body, aliasing a pooled
// transport frame. The caller parses it with NewDecoder (RawFloat64s for
// bulk array payloads reads without copying) and must call Release when
// done; Results is invalid afterwards.
type RawReply struct {
	frame   []byte
	Results []byte
}

// Release returns the backing frame to the transport pool.
func (r RawReply) Release() {
	if r.frame != nil {
		transport.ReleaseFrame(r.frame)
	}
}

// InvokeRawContext performs a remote call but hands back the reply's
// results undecoded — the bulk-transfer path: a chunk of a distributed
// array crosses from the reply frame to its destination storage in one
// copy (Decoder.RawFloat64s + caller's scatter) instead of two. Remote
// exceptions still surface as ErrRemote. RED metrics are maintained as
// for InvokeContext, but no client-call span is recorded (see roundTrip).
func (c *Client) InvokeRawContext(ctx context.Context, key, method string, args ...any) (RawReply, error) {
	return c.roundTrip(ctx, key, method, args, nil)
}

// Close releases the connection; pending calls fail with
// transport.ErrClosed.
func (c *Client) Close() error {
	return c.conn.Close()
}
