// Shared reference-counted payload buffers for server-side fan-out:
// broadcast layers (repro/internal/dist/collective's publisher) pack a
// payload once and send the same bytes to many connections without
// per-subscriber copies. transport.go holds the backends; the TCP
// coalescer implements the zero-copy path natively, every other backend
// falls back to a single pooled copy.
package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

var (
	cSharedSends    = obs.NewCounter("transport.shared_sends")
	cSharedZeroCopy = obs.NewCounter("transport.shared_sends_zerocopy")
)

// SharedBuf is an immutable, reference-counted payload buffer. A producer
// allocates it once (NewSharedBuf), fills Bytes, and hands it to any
// number of concurrent senders; each sender Retains before use and
// Releases after, and the storage returns to the frame pool when the last
// reference drops. The bytes must not be mutated after the first send —
// senders on the zero-copy path reference them directly from writev.
type SharedBuf struct {
	b    []byte
	refs atomic.Int64
}

var sharedBufPool = sync.Pool{New: func() any { return new(SharedBuf) }}

// NewSharedBuf returns a buffer of length n holding one reference, owned
// by the caller. Storage is recycled through the package frame pool when
// it fits (same cap as Recv frames).
func NewSharedBuf(n int) *SharedBuf {
	s := sharedBufPool.Get().(*SharedBuf)
	s.b = grabFrame(n)
	s.refs.Store(1)
	return s
}

// Bytes returns the payload. The slice is valid until the caller's
// reference is released and must not be mutated once any send has seen it.
func (s *SharedBuf) Bytes() []byte { return s.b }

// Len returns the payload length.
func (s *SharedBuf) Len() int { return len(s.b) }

// Retain adds a reference. Each holder that may outlive the current
// caller's reference must take its own.
func (s *SharedBuf) Retain() {
	if s.refs.Add(1) <= 1 {
		panic("transport: SharedBuf.Retain after release")
	}
}

// Release drops one reference; the last drop recycles the storage. The
// caller must not touch Bytes afterwards.
func (s *SharedBuf) Release() {
	n := s.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("transport: SharedBuf over-released")
	}
	ReleaseFrame(s.b)
	s.b = nil
	sharedBufPool.Put(s)
}

// SharedSender is implemented by connections with a native splice path
// for shared payloads. SendShared must behave like Send of hdr+payload
// concatenated, without retaining the payload past return.
type SharedSender interface {
	SendShared(hdr []byte, payload *SharedBuf) error
}

// WriteDrainer is implemented by connections that buffer writes. It
// blocks until every previously queued frame has reached the socket (or
// the write side failed); graceful server shutdown drains before closing
// so in-flight replies are not torn off mid-flush.
type WriteDrainer interface {
	DrainWrites()
}

// SendShared sends one frame whose payload is hdr followed by the shared
// buffer's bytes. The caller keeps its reference across the call and may
// release it as soon as SendShared returns; implementations either copy
// or finish their zero-copy write before returning. The header (typically
// a small per-request prefix: correlation IDs, CDR tags) is always
// copied.
func SendShared(c Conn, hdr []byte, payload *SharedBuf) error {
	if ss, ok := c.(SharedSender); ok {
		return ss.SendShared(hdr, payload)
	}
	f := grabFrame(len(hdr) + payload.Len())
	n := copy(f, hdr)
	copy(f[n:], payload.Bytes())
	err := c.Send(f)
	ReleaseFrame(f)
	if err == nil && obs.MetricsEnabled() {
		cSharedSends.Inc()
	}
	return err
}

// SendShared implements SharedSender on the TCP coalescer: the length
// prefix and header ride the coalesce buffer, the payload is appended as
// its own zero-copy iovec when it clears the cutoff. The zero-copy sender
// waits until its segment is flushed (exactly like Send's large-frame
// path), so the shared bytes are never referenced after return.
func (c *tcpConn) SendShared(hdr []byte, payload *SharedBuf) error {
	total := len(hdr) + payload.Len()
	if total > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, total)
	}
	var lp [4]byte
	binary.BigEndian.PutUint32(lp[:], uint32(total))

	c.wmu.Lock()
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	if obs.MetricsEnabled() {
		c.bump(statFramesSent, 1)
		c.bump(statBytesSent, uint64(total))
		cSharedSends.Inc()
	}
	c.appendSmall(lp[:])
	c.appendSmall(hdr)
	body := payload.Bytes()
	small := len(body) <= coalesceCutoff
	if small {
		c.appendSmall(body)
	} else {
		c.wsegs = append(c.wsegs, wseg{ref: body})
		if obs.MetricsEnabled() {
			cSharedZeroCopy.Inc()
		}
	}
	return c.commitLocked(small)
}
