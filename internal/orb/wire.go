package orb

import (
	"encoding/binary"
	"fmt"
)

// Wire format (v2, multiplexed + traced). Every frame on a remote ORB
// connection is
//
//	[8-byte little-endian correlation ID] [8-byte little-endian trace ID] [CDR body]
//
// Request bodies are: key, method, args... . A correlation ID of 0 marks a
// oneway request — no reply frame is ever produced for it; nonzero IDs are
// client-assigned and unique among that client's in-flight calls. Reply
// frames echo the request's correlation ID; their body is: bool ok, then
// results (ok) or a message string (!ok).
//
// The trace ID is observability metadata: 0 means untraced; a nonzero ID
// is drawn by a client whose tracing is enabled (obs.ActiveTraceID),
// recorded into every span the call produces on either end, and echoed
// into the reply — so client-call, server-recv, and dispatch spans of one
// remote port call share an ID and can be joined across processes. The
// ORB never branches on the trace ID beyond "is it zero"; a server
// without tracing enabled just carries it.
//
// Because replies carry the ID they answer, one connection can carry any
// number of concurrent in-flight requests and replies may arrive in any
// order — the client demultiplexes by ID (see Client), and the server
// dispatches two-way requests concurrently (see Serve). Oneway requests
// are the exception: the server runs them inline in the connection's read
// loop, preserving their ordering relative to later requests on the same
// connection (the paper's loosely coupled monitor semantics).

// frameHeader is the byte length of the frame prefix: correlation ID then
// trace ID.
const frameHeader = 16

// traceOffset is where the trace ID sits inside the header.
const traceOffset = 8

// onewayID is the reserved correlation ID for fire-and-forget requests.
const onewayID = 0

// splitFrame separates the correlation ID, trace ID, and CDR body. ok is
// false when the frame is too short to carry a header — a protocol
// violation.
func splitFrame(frame []byte) (id, trace uint64, body []byte, ok bool) {
	if len(frame) < frameHeader {
		return 0, 0, nil, false
	}
	return binary.LittleEndian.Uint64(frame),
		binary.LittleEndian.Uint64(frame[traceOffset:]),
		frame[frameHeader:], true
}

// encodeRequest builds a request frame (correlation + trace header, then
// body) in a pooled encoder; the caller releases it with PutEncoder after
// the frame is sent.
func encodeRequest(id, trace uint64, key, method string, args []any) (*Encoder, error) {
	e := GetEncoder()
	h := e.grow(frameHeader)
	binary.LittleEndian.PutUint64(h, id)
	binary.LittleEndian.PutUint64(h[traceOffset:], trace)
	e.EncodeString(key)
	e.EncodeString(method)
	for _, a := range args {
		if err := e.Encode(a); err != nil {
			PutEncoder(e)
			return nil, err
		}
	}
	return e, nil
}

// newReply returns a pooled encoder with the frame header reserved and
// zeroed; stampReply fills it in once the request's IDs are known.
func newReply() *Encoder {
	e := GetEncoder()
	h := e.grow(frameHeader)
	for i := range h {
		h[i] = 0 // grow reuses pooled storage; the hole must be cleared
	}
	return e
}

// stampReply writes the correlation and trace IDs into a reply frame built
// by newReply.
func stampReply(e *Encoder, id, trace uint64) {
	b := e.Bytes()
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[traceOffset:], trace)
}

// errReply builds an error reply frame (header still unstamped).
func errReply(err error) *Encoder {
	e := newReply()
	e.Encode(false) //nolint:errcheck // bool always encodes
	e.EncodeString(err.Error())
	return e
}

// replyResults validates a reply body's leading ok bool and returns the
// undecoded results portion, aliasing rep. A !ok reply decodes its message
// string and surfaces it as ErrRemote.
func replyResults(rep []byte) ([]byte, error) {
	d := NewDecoder(rep)
	okv, err := d.Decode()
	if err != nil {
		return nil, err
	}
	ok, isBool := okv.(bool)
	if !isBool {
		return nil, fmt.Errorf("%w: leading %T", ErrBadReply, okv)
	}
	if !ok {
		msg, err := d.DecodeString()
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	return rep[d.off:], nil
}

// decodeReply unmarshals a reply body (the frame after its header). Every
// returned value is copied out of rep: the caller may release the backing
// frame immediately after.
func decodeReply(rep []byte) ([]any, error) {
	results, err := replyResults(rep)
	if err != nil {
		return nil, err
	}
	d := NewDecoder(results)
	out := make([]any, 0, 4) // replies are short: one append, no regrow
	for d.More() {
		v, err := d.Decode()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
