package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"repro/internal/transport"
)

// Class partitions remote-call failures by what the caller can do about
// them — the error taxonomy the supervised client reports and acts on.
type Class int

const (
	// ClassRetryable marks connection-level failures (peer died, socket
	// reset, circuit open): the call may succeed after a reconnect, and the
	// supervisor transparently retries idempotent-marked methods.
	ClassRetryable Class = iota
	// ClassTimeout marks calls abandoned because the caller's context
	// expired. The server may still have executed the request.
	ClassTimeout
	// ClassFatal marks application- or protocol-level failures (remote
	// exception, unknown object, malformed frame): retrying the identical
	// call cannot help.
	ClassFatal
)

func (c Class) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassTimeout:
		return "timeout"
	case ClassFatal:
		return "fatal"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ErrCircuitOpen is reported (wrapped in a CallError) when the supervised
// client's circuit breaker is open: the peer has been down long enough that
// calls are shed immediately instead of waiting out another dial.
var ErrCircuitOpen = errors.New("orb: circuit breaker open")

// ErrOverloaded is the typed load-shed reply: an admission-controlled
// server (ServeWith with a MaxInflight bound, or one draining toward
// Close) refused the request before dispatching it. The
// request was never executed, so retrying is safe for any method —
// idempotent or not — and the supervised client backs off and retries on
// the same healthy connection instead of tearing it down.
var ErrOverloaded = errors.New("orb: server overloaded")

// overloadedMsg is the wire prefix of every shed reply. Shed errors cross
// the wire as remote-exception strings, so the client re-types them by
// prefix — same mechanism as the collective layer's stale-plan sentinels.
const overloadedMsg = "orb: server overloaded"

// IsOverloaded reports whether err is a server load-shed reply, either
// the typed local error or its remote-exception form.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrOverloaded) || strings.Contains(err.Error(), overloadedMsg)
}

// CallError is the typed error a supervised call fails with: the
// underlying cause plus its classification. It unwraps to the cause, so
// errors.Is against transport.ErrClosed, ErrRemote, context.DeadlineExceeded
// etc. keeps working through it.
type CallError struct {
	Class Class
	Err   error
}

func (e *CallError) Error() string { return fmt.Sprintf("orb: %s call error: %v", e.Class, e.Err) }
func (e *CallError) Unwrap() error { return e.Err }

// Classify maps an error from the remote path to its Class. CallErrors
// report their recorded class; connection-level transport errors are
// Retryable; context expiry is Timeout; everything else (remote exceptions,
// protocol violations, marshaling failures) is Fatal.
func Classify(err error) Class {
	var ce *CallError
	if errors.As(err, &ce) {
		return ce.Class
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ClassTimeout
	case errors.Is(err, transport.ErrClosed),
		errors.Is(err, transport.ErrNoListener),
		errors.Is(err, ErrCircuitOpen),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed):
		return ClassRetryable
	}
	if IsOverloaded(err) {
		// Shed before execution: retryable even though it arrives dressed
		// as a remote exception (normally fatal).
		return ClassRetryable
	}
	var ne net.Error // dial refused/reset/timeout arrive as *net.OpError
	if errors.As(err, &ne) {
		return ClassRetryable
	}
	return ClassFatal
}

// classed wraps err as a CallError of the given class (idempotent: an
// existing CallError passes through unchanged).
func classed(class Class, err error) error {
	var ce *CallError
	if errors.As(err, &ce) {
		return err
	}
	return &CallError{Class: class, Err: err}
}
