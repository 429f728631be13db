package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// ErrSupervisorClosed is reported by calls on a Supervised client after
// Close.
var ErrSupervisorClosed = errors.New("orb: supervised client closed")

// ConnState is the supervised connection's externally visible health:
// Healthy (live client), Degraded (connection lost, redial in progress —
// idempotent calls wait and retry, others fail fast with a Retryable
// error), Broken (circuit open: the peer has resisted BreakerThreshold
// consecutive dials, so every call is shed immediately until a half-open
// probe succeeds).
type ConnState int32

// Supervised connection states.
const (
	StateHealthy ConnState = iota
	StateDegraded
	StateBroken
)

func (s ConnState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateBroken:
		return "broken"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Heartbeat wire detail: an idle supervised connection is probed with a
// oneway request (correlation ID 0) to this reserved key/method. Every
// ObjectAdapter answers the key with a no-op handler, so a ping is a
// successful call in the server's RED metrics and spans, not an error; the
// probe costs one frame and no reply. Its purpose is forcing a write,
// which is what surfaces a silently dead transport.
const (
	pingKey    = "orb/supervisor"
	pingMethod = "ping"
)

// SupervisorOptions tunes a Supervised client. The zero value is usable:
// every field has a documented default.
type SupervisorOptions struct {
	// ConnectTimeout bounds the initial DialSupervised: dials that find no
	// listener are retried until one succeeds or this budget elapses.
	// Default 5s.
	ConnectTimeout time.Duration
	// Retry is the redial and call-retry schedule: attempt n waits
	// Retry.Delay(n). Retry.Cap also paces an open circuit's half-open
	// probes and bounds how long an idempotent call waits for a redial.
	// Defaults 5ms and 1s.
	Retry transport.Backoff
	// MaxAttempts is the per-call attempt budget for idempotent-marked
	// methods (first try included). Non-idempotent methods always get
	// exactly one attempt. Default 4.
	MaxAttempts int
	// CallTimeout, when nonzero, bounds each attempt of an idempotent call
	// (on top of the caller's context): a lost request or reply frame turns
	// into a timely retry instead of an indefinite hang. Default 0 (off).
	CallTimeout time.Duration
	// BreakerThreshold opens the circuit after this many consecutive
	// failed dials. Default 5.
	BreakerThreshold int
	// Heartbeat, when nonzero, probes the connection with a oneway ping
	// after this much idle time, so a silently dead peer is detected (and
	// redial begins) without waiting for the next real call. Default 0.
	Heartbeat time.Duration
	// Idempotent marks methods safe to re-execute; the supervisor
	// transparently retries them across reconnects under the caller's
	// context deadline. Nil marks nothing.
	Idempotent func(method string) bool
	// OnState observes health transitions (the framework bridges these to
	// configuration-API events). Called outside the supervisor lock, but
	// sequentially; it must not call back into the Supervised client.
	OnState func(s ConnState, cause error)
	// Restart, when non-nil, turns Broken from a terminal shed state into
	// crash recovery: once the circuit opens, each half-open probe first
	// relaunches a servant (Restart.Relaunch), redials it, and replays the
	// latest checkpoint through the reserved RestoreKey before adopting
	// the connection. See RestartPolicy.
	Restart *RestartPolicy
}

// AllIdempotent marks every method idempotent — appropriate for read-only
// port interfaces like the ESI operator surface.
func AllIdempotent(string) bool { return true }

func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 5 * time.Second
	}
	if o.Retry.Base <= 0 {
		o.Retry.Base = 5 * time.Millisecond
	}
	if o.Retry.Cap <= 0 {
		o.Retry.Cap = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	return o
}

// Supervised is a self-healing multiplexed ORB client: the paper's
// framework-interposed proxy made resilient. It wraps Client with a
// supervisor that (1) classifies every failure as Retryable, Timeout, or
// Fatal; (2) redials lost connections with capped exponential backoff;
// (3) transparently retries idempotent-marked methods under the
// caller's context deadline; (4) sheds load through a closed → open →
// half-open circuit breaker once the peer looks truly dead; and (5)
// optionally probes idle connections with a oneway heartbeat. All methods
// are safe for concurrent use.
type Supervised struct {
	tr   transport.Transport
	addr string
	opts SupervisorOptions

	mu          sync.Mutex
	cur         *Client       // nil while disconnected
	gen         uint64        // bumped on every adopted connection
	ready       chan struct{} // closed while cur != nil; replaced on loss
	state       ConnState
	consecDials int  // consecutive failed dials (breaker input)
	restarts    int  // RestartPolicy relaunches this outage
	redialing   bool // a redial loop is running
	closed      bool // Close called

	stop     chan struct{} // closed by Close
	wg       sync.WaitGroup
	lastSend atomic.Int64 // unix nanos of the last successful call activity
}

// DialSupervised connects to a served address under supervision. The
// initial dial is retried (transport.DialRetry) while nothing listens there
// yet, until ConnectTimeout elapses, so a client may be started slightly
// before its server; any other dial failure is returned at once.
func DialSupervised(tr transport.Transport, addr string, opts SupervisorOptions) (*Supervised, error) {
	opts = opts.withDefaults()
	conn, err := transport.DialRetry(tr, addr, opts.ConnectTimeout)
	if err != nil {
		return nil, fmt.Errorf("orb: supervised dial %s: %w", addr, err)
	}
	s := &Supervised{
		tr:    tr,
		addr:  addr,
		opts:  opts,
		ready: make(chan struct{}),
		stop:  make(chan struct{}),
	}
	s.adopt(newClient(conn))
	gSupStates[StateHealthy].Add(1) // the connection now exists, Healthy
	if s.opts.Heartbeat > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// setStateLocked transitions the health state; the returned thunk (nil when
// the state did not change) must be called after the lock is released.
func (s *Supervised) setStateLocked(st ConnState, cause error) func() {
	if s.state == st {
		return nil
	}
	// Breaker-state gauges: this connection's contribution moves from its
	// old state's gauge to the new one's.
	gSupStates[s.state].Add(-1)
	gSupStates[st].Add(1)
	if st == StateBroken {
		cSupBreakerOpens.Inc()
	}
	s.state = st
	if cb := s.opts.OnState; cb != nil {
		return func() { cb(st, cause) }
	}
	return nil
}

// adopt installs a freshly dialed client and spawns its death watcher.
func (s *Supervised) adopt(c *Client) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.cur = c
	s.gen++
	g := s.gen
	s.consecDials = 0
	s.restarts = 0 // outage over: the restart budget re-arms
	s.redialing = false
	close(s.ready)
	notify := s.setStateLocked(StateHealthy, nil)
	s.mu.Unlock()
	if notify != nil {
		notify()
	}
	s.lastSend.Store(time.Now().UnixNano())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-c.Done():
			s.dropClient(c, g, c.Err())
		case <-s.stop:
		}
	}()
}

// dropClient tears down a client observed failing (by a caller or the
// death watcher) and starts the redial loop. Generation-checked, so a
// stale report about an already replaced connection is a no-op.
func (s *Supervised) dropClient(c *Client, g uint64, cause error) {
	s.mu.Lock()
	if s.closed || s.gen != g || s.cur != c {
		s.mu.Unlock()
		c.Close() // stale: still make sure its demux winds down
		return
	}
	s.cur = nil
	s.ready = make(chan struct{})
	notify := s.setStateLocked(StateDegraded, cause)
	if !s.redialing {
		s.redialing = true
		s.wg.Add(1)
		go s.redialLoop(cause)
	}
	s.mu.Unlock()
	if notify != nil {
		notify()
	}
	c.Close()
}

// redialLoop re-establishes the connection on the Retry schedule. After
// BreakerThreshold consecutive failures the circuit opens (state Broken:
// calls shed immediately) and further attempts become half-open probes
// paced at Retry.Cap.
func (s *Supervised) redialLoop(cause error) {
	defer s.wg.Done()
	for attempt := 0; ; attempt++ {
		delay := s.opts.Retry.Delay(attempt)
		s.mu.Lock()
		if s.closed {
			s.redialing = false
			s.mu.Unlock()
			return
		}
		var notify func()
		if s.consecDials >= s.opts.BreakerThreshold {
			notify = s.setStateLocked(StateBroken, cause)
		}
		if s.state == StateBroken {
			delay = s.opts.Retry.Cap // rest until the half-open probe
		}
		s.mu.Unlock()
		if notify != nil {
			notify()
		}
		if !s.sleepCtx(context.Background(), delay) {
			s.mu.Lock()
			s.redialing = false
			s.mu.Unlock()
			return
		}
		cSupRedials.Inc()
		s.mu.Lock()
		restart := s.state == StateBroken && s.restartBudgetLeft()
		addr := s.addr
		s.mu.Unlock()
		var c *Client
		if restart {
			// Crash recovery: relaunch a servant, dial it, replay the
			// checkpoint. Any failed step counts against the dial streak
			// like an ordinary probe miss, and its error replaces the
			// stale pre-restart cause in Broken notifications and sheds.
			var err error
			if c, err = s.tryRestart(); err != nil {
				cause = err
				s.mu.Lock()
				s.consecDials++
				s.mu.Unlock()
				continue
			}
		} else {
			var err error
			if c, err = DialClient(s.tr, addr); err != nil {
				cause = err
				s.mu.Lock()
				s.consecDials++
				s.mu.Unlock()
				continue
			}
		}
		s.adopt(c) // clears redialing under the lock
		return
	}
}

// acquire returns the live client, waiting (bounded by Retry.Cap and ctx)
// for a reconnect when wait is set. Broken state fails fast — that is the
// breaker shedding load.
func (s *Supervised) acquire(ctx context.Context, wait bool) (*Client, uint64, error) {
	for {
		s.mu.Lock()
		switch {
		case s.closed:
			s.mu.Unlock()
			return nil, 0, classed(ClassFatal, ErrSupervisorClosed)
		case s.cur != nil:
			c, g := s.cur, s.gen
			s.mu.Unlock()
			return c, g, nil
		case s.state == StateBroken:
			addr := s.addr
			s.mu.Unlock()
			return nil, 0, classed(ClassRetryable, fmt.Errorf("%w: %s", ErrCircuitOpen, addr))
		}
		ready, addr := s.ready, s.addr
		s.mu.Unlock()
		if !wait {
			return nil, 0, classed(ClassRetryable,
				fmt.Errorf("%w: reconnecting to %s", transport.ErrClosed, addr))
		}
		t := time.NewTimer(s.opts.Retry.Cap)
		select {
		case <-ready:
			t.Stop()
			continue
		case <-ctx.Done():
			t.Stop()
			return nil, 0, classed(ClassTimeout, ctx.Err())
		case <-s.stop:
			t.Stop()
			return nil, 0, classed(ClassFatal, ErrSupervisorClosed)
		case <-t.C:
			// Bounded wait: report Retryable and let the caller's attempt
			// budget decide, rather than hanging without a deadline.
			return nil, 0, classed(ClassRetryable,
				fmt.Errorf("%w: still reconnecting to %s", transport.ErrClosed, addr))
		}
	}
}

// Invoke performs a supervised remote call; see InvokeContext.
func (s *Supervised) Invoke(key, method string, args ...any) ([]any, error) {
	return s.InvokeContext(context.Background(), key, method, args...)
}

// InvokeContext performs a supervised remote call. Failures surface as
// *CallError. Idempotent-marked methods are retried across reconnects —
// with backoff, within MaxAttempts, and never past ctx's deadline; when
// CallTimeout is set each attempt is individually bounded, so a frame lost
// in transit costs one attempt, not the whole deadline. Non-idempotent
// methods fail on the first connection-level error (the server may or may
// not have executed them — only the caller can decide to resubmit).
func (s *Supervised) InvokeContext(ctx context.Context, key, method string, args ...any) ([]any, error) {
	var res []any
	err := s.supervisedDo(ctx, method, func(ctx context.Context, c *Client) error {
		var err error
		res, err = c.InvokeContext(ctx, key, method, args...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// InvokeRawContext is the supervised bulk-transfer path: it performs
// Client.InvokeRawContext under exactly the retry, redial, and breaker
// policy of InvokeContext. The distributed collective port pulls its
// chunks through this, so a severed cohort connection heals mid-pull.
func (s *Supervised) InvokeRawContext(ctx context.Context, key, method string, args ...any) (RawReply, error) {
	var rr RawReply
	err := s.supervisedDo(ctx, method, func(ctx context.Context, c *Client) error {
		var err error
		rr, err = c.InvokeRawContext(ctx, key, method, args...)
		return err
	})
	if err != nil {
		return RawReply{}, err
	}
	return rr, nil
}

// supervisedDo runs one logical call through the shared retry loop: call
// performs a single attempt on a live client (results are captured by the
// caller's closure), and the loop classifies its failures, redials, and
// retries idempotent-marked methods per SupervisorOptions.
func (s *Supervised) supervisedDo(ctx context.Context, method string, call func(ctx context.Context, c *Client) error) error {
	idem := s.opts.Idempotent != nil && s.opts.Idempotent(method)
	// Every method gets the full attempt budget: non-idempotent calls
	// still return on the first connection-level failure (below), but
	// load-shed replies arrive before the server executes anything, so
	// they are safe to retry regardless of idempotence.
	attempts := s.opts.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			cSupRetries.Inc()
			if !s.sleepCtx(ctx, s.opts.Retry.Delay(attempt-1)) {
				return classed(ClassTimeout, ctx.Err())
			}
		}
		c, g, err := s.acquire(ctx, idem)
		if err != nil {
			lastErr = err
			if !idem || Classify(err) != ClassRetryable {
				return err
			}
			continue
		}
		callCtx, cancel := ctx, func() {}
		if idem && s.opts.CallTimeout > 0 {
			callCtx, cancel = context.WithTimeout(ctx, s.opts.CallTimeout)
		}
		err = call(callCtx, c)
		cancel()
		if err == nil {
			s.lastSend.Store(time.Now().UnixNano())
			return nil
		}
		switch Classify(err) {
		case ClassFatal:
			// Application-level failure: the connection is fine and a
			// retry would re-raise the same exception.
			return classed(ClassFatal, err)
		case ClassTimeout:
			if ctx.Err() != nil || !idem {
				return classed(ClassTimeout, err)
			}
			// Only the per-attempt CallTimeout expired (likely a dropped
			// frame); the caller's deadline is intact, so retry. The
			// connection itself may be healthy — do not tear it down.
			lastErr = classed(ClassTimeout, err)
		case ClassRetryable:
			if IsOverloaded(err) {
				// The server shed the request before executing it: the
				// connection is healthy, so back off and retry on it
				// instead of tearing it down — redialing a loaded server
				// would only add dial storms to the overload.
				cSupOverloads.Inc()
				lastErr = classed(ClassRetryable, err)
				continue
			}
			s.dropClient(c, g, err)
			lastErr = classed(ClassRetryable, err)
			if !idem {
				return lastErr
			}
		}
	}
	return lastErr
}

// sleepCtx waits d unless ctx or Close interrupts; reports true when the
// wait ran full.
func (s *Supervised) sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-s.stop:
		return false
	}
}

// heartbeatLoop probes the connection with a oneway ping whenever it has
// been idle for a full Heartbeat interval. The ping carries correlation
// ID 0 and no reply; detection works because writing is the one operation
// a silently dead transport cannot fake indefinitely.
func (s *Supervised) heartbeatLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		if time.Since(time.Unix(0, s.lastSend.Load())) < s.opts.Heartbeat {
			continue // real traffic is probing the connection already
		}
		s.mu.Lock()
		c, g, st := s.cur, s.gen, s.state
		s.mu.Unlock()
		if st == StateBroken {
			// An open circuit means the peer resisted BreakerThreshold
			// consecutive dials; pinging it would only prolong the storm.
			// The half-open probe (redialLoop) owns recovery detection.
			cSupHeartbeatsSuppressed.Inc()
			continue
		}
		if c == nil {
			continue // redial in progress
		}
		if err := c.InvokeOneway(pingKey, pingMethod); err != nil {
			s.dropClient(c, g, fmt.Errorf("orb: heartbeat: %w", err))
		} else {
			s.lastSend.Store(time.Now().UnixNano())
		}
	}
}

// Close stops supervision (redial loop, heartbeat, watchers) and releases
// the connection. Pending calls fail; later calls report
// ErrSupervisorClosed.
func (s *Supervised) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	gSupStates[s.state].Add(-1) // retire this connection's state contribution
	c := s.cur
	s.cur = nil
	close(s.stop)
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	s.wg.Wait()
	return nil
}
