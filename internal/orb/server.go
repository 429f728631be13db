package orb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// dispatchCap bounds the two-way requests a server executes concurrently,
// sized from the shared par worker pool so remote dispatch cannot
// oversubscribe the machine the numeric kernels also run on. Dispatch slots
// are overlap slots, not CPU slots — a handler spends most of its life in
// transport I/O, not compute — so the cap runs well past the worker count,
// with a floor that keeps single-core hosts pipelining deep enough for the
// write coalescer to form full batches of replies.
func dispatchCap() int {
	c := 4 * par.Workers()
	if c < 32 {
		c = 32
	}
	return c
}

// ServeOptions configures a server's admission control. The zero value
// reproduces the classic Serve: unbounded admission (the blocking dispatch
// queue is the only backpressure).
type ServeOptions struct {
	// MaxInflight bounds two-way requests admitted but not yet replied
	// to (queued + executing), across all connections. Beyond it the
	// server sheds: the request is answered immediately with a typed
	// retryable ErrOverloaded reply instead of executing, keeping reply
	// tail latency flat while supervised clients back off. 0 means no
	// bound — the read loops block when the dispatch queue fills, which
	// back-pressures each connection instead of answering it.
	MaxInflight int
}

// drainTimeout bounds how long Close waits for in-flight requests before
// tearing connections down.
const drainTimeout = 5 * time.Second

// Shed causes, pre-built so the shed path does not allocate errors.
var (
	errShedQueue = fmt.Errorf("%w: dispatch queue full", ErrOverloaded)
	errShedDrain = fmt.Errorf("%w: server draining", ErrOverloaded)
)

// Server serves object-adapter requests over a transport listener — the
// remote half of the distributed baseline and of distributed CCA port
// connections that choose ORB transport.
//
// Each connection is drained by one read loop. Oneway requests dispatch
// inline in that loop, preserving their ordering relative to every later
// request on the same connection. Two-way requests dispatch on a bounded
// worker set (dispatchCap, shared across connections) so many in-flight
// calls from a multiplexing client execute concurrently and one slow call
// cannot stall the pipeline; when the cap is reached the read loop blocks,
// which is the server's backpressure — unless ServeOptions enables
// admission control, in which case excess requests are shed with a typed
// retryable reply before they queue. Replies are written as handlers
// complete, in any order — the transport's write coalescer batches replies
// that complete within the same flush window into one writev. Replies
// carrying a shared payload (see Encoder.AppendSharedFloat64s) are spliced
// zero-copy, so N subscribers of the same cached epoch share one buffer.
type Server struct {
	OA       *ObjectAdapter
	opts     ServeOptions
	listener transport.Listener
	work     chan dispatchItem
	wg       sync.WaitGroup // accept loop + per-connection read loops
	workerWg sync.WaitGroup // dispatch workers
	mu       sync.Mutex
	stopped  bool
	conns    map[transport.Conn]struct{}

	inflight atomic.Int64 // admitted two-way requests not yet replied to
	draining atomic.Bool  // Close in progress: shed instead of admit
}

// dispatchItem is one two-way request handed from a read loop to the
// dispatch workers. req is the pooled frame; the body follows its
// correlation+trace header. recvMono is the read loop's arrival clock for
// traced frames (0 otherwise) — the dispatch span turns it into queueing
// delay.
type dispatchItem struct {
	conn     transport.Conn
	id       uint64
	trace    uint64
	recvMono int64
	req      []byte
}

// Serve starts accepting connections on l, dispatching each request frame
// through the adapter. It returns immediately; Close shuts the server
// down. Admission control is off — see ServeWith.
func Serve(oa *ObjectAdapter, l transport.Listener) *Server {
	return ServeWith(oa, l, ServeOptions{})
}

// ServeWith is Serve with explicit admission-control options.
func ServeWith(oa *ObjectAdapter, l transport.Listener, opts ServeOptions) *Server {
	qcap := dispatchCap()
	if opts.MaxInflight > qcap {
		// The queue must hold every admitted request, or enqueue would
		// block before the shed check ever fires.
		qcap = opts.MaxInflight
	}
	s := &Server{
		OA:       oa,
		opts:     opts,
		listener: l,
		work:     make(chan dispatchItem, qcap),
		conns:    map[transport.Conn]struct{}{},
	}
	// Persistent dispatch workers rather than a goroutine per request: a
	// handler runs through reflect with deep call frames, and a fresh
	// goroutine would regrow its stack for every request. Warm workers pay
	// that once.
	for i := 0; i < dispatchCap(); i++ {
		s.workerWg.Add(1)
		go func() {
			defer s.workerWg.Done()
			for it := range s.work {
				rep := s.OA.dispatchBody(it.req[frameHeader:], false, it.trace, it.recvMono)
				stampReply(rep, it.id, it.trace)
				// A write failure is connection-level; the read loop
				// observes it on its next Recv and tears the connection
				// down.
				if sp := rep.takeShared(); sp != nil {
					// Fan-out reply: splice the shared payload after the
					// per-request prefix without flattening it into the
					// encoder. The worker's reference (taken from the
					// encoder) outlives the send.
					transport.SendShared(it.conn, rep.Bytes(), sp) //nolint:errcheck
					sp.Release()
				} else {
					it.conn.Send(rep.Bytes()) //nolint:errcheck
				}
				PutEncoder(rep)
				transport.ReleaseFrame(it.req)
				if n := s.inflight.Add(-1); obs.MetricsEnabled() {
					gServerInflight.Set(n)
				}
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.stopped {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
	return s
}

// serveConn is one connection's read loop.
func (s *Server) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		id, trace, body, ok := splitFrame(req)
		if !ok {
			// No correlation header: there is no ID to answer on and the
			// stream can no longer be trusted; drop the connection.
			transport.ReleaseFrame(req)
			return
		}
		var recvMono int64
		if trace != 0 {
			// Clock the traced frame's arrival before it queues for a
			// dispatch slot; the dispatch span reports the gap as Queue.
			recvMono = obs.Mono()
		}
		if id == onewayID {
			if s.draining.Load() {
				// Oneways have no reply to shed onto; drop them.
				transport.ReleaseFrame(req)
				continue
			}
			s.OA.dispatchBody(body, true, trace, recvMono) // oneways have no reply
			transport.ReleaseFrame(req)
			continue
		}
		if !s.admit(conn, id, trace) {
			transport.ReleaseFrame(req)
			continue
		}
		// Blocks when every worker is busy and the queue is full — the
		// server's backpressure (with MaxInflight set, the shed check in
		// admit fires first and this never blocks).
		s.work <- dispatchItem{conn: conn, id: id, trace: trace, recvMono: recvMono, req: req}
	}
}

// admit runs the admission checks for one two-way request, answering a
// typed retryable ErrOverloaded reply on the request's own correlation ID
// when it is shed. It reports whether the request may be dispatched; on
// true the inflight count is already charged, and the dispatch worker
// un-charges it after replying.
func (s *Server) admit(conn transport.Conn, id, trace uint64) bool {
	if s.draining.Load() {
		s.shed(conn, id, trace, errShedDrain, cServerShedDrain)
		return false
	}
	n := s.inflight.Add(1)
	if max := int64(s.opts.MaxInflight); max > 0 && n > max {
		s.inflight.Add(-1)
		s.shed(conn, id, trace, errShedQueue, cServerShedQueue)
		return false
	}
	if obs.MetricsEnabled() {
		gServerInflight.Set(n)
	}
	return true
}

// shed answers a refused request immediately with the typed overload
// reply. The Send is best-effort — a dead connection surfaces on the read
// loop's next Recv.
func (s *Server) shed(conn transport.Conn, id, trace uint64, cause error, reason *obs.Counter) {
	cServerShed.Inc()
	reason.Inc()
	e := errReply(cause)
	stampReply(e, id, trace)
	conn.Send(e.Bytes()) //nolint:errcheck
	PutEncoder(e)
}

// Addr reports the served address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close shuts the server down gracefully: stop accepting connections,
// answer newly arriving requests with the typed retryable ErrOverloaded
// reply, wait (bounded by drainTimeout) for every in-flight dispatch to
// finish and its reply to reach the socket, then close every connection and
// retire the dispatch workers. Clients see their outstanding calls complete
// instead of transport.ErrClosed. With nothing in flight it returns as soon
// as the connections are closed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.draining.Store(true)
	s.listener.Close()
	// Read loops stay up through the drain so replies still flow and late
	// requests are shed rather than torn off.
	deadline := time.Now().Add(drainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	// Workers have handed their replies to the transport; wait for buffered
	// write sides to reach the socket before closing them.
	for _, c := range conns {
		if wd, ok := c.(transport.WriteDrainer); ok {
			wd.DrainWrites()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()   // read loops done: no more producers for work
	close(s.work) // workers finish queued requests, then exit
	s.workerWg.Wait()
}
