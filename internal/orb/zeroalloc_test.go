package orb

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Steady-state allocation tests for the two halves a remote call is built
// from. Server dispatch — arena decode of the arguments, CallSink into a
// pooled reply encoder — must allocate nothing, and the same-host
// transports must carry a small frame there and back without allocating.
// testing.AllocsPerRun counts every goroutine's allocations, so the echo
// peer and the transport's internal goroutines are charged too.

// assertZeroAlloc warms every pool f touches (encoders, frames, arenas,
// argument slices), settles the pools' GC generation so a collection during
// measurement finds them in the victim cache rather than empty, and then
// requires f to allocate nothing.
func assertZeroAlloc(t *testing.T, f func()) {
	t.Helper()
	for i := 0; i < 50; i++ {
		f()
	}
	if raceEnabled {
		t.Skip("allocation counts are unmeasurable under the race runtime")
	}
	runtime.GC()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", n)
	}
}

func TestDispatchZeroAlloc(t *testing.T) {
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 1024)
	var sum float64
	for i := range xs {
		xs[i] = float64(i%7) * 0.5
		sum += xs[i]
	}
	for _, tc := range []struct {
		name, method string
		args         []any
		want         any
	}{
		{"scalar", "add", []any{2.5, 3.25}, 5.75},
		// The arena's []float64 decode (tagFloat64Slice).
		{"slice", "sum", []any{xs}, sum},
		// An arena-backed string argument encoded straight back out.
		{"string", "echo", []any{"world"}, "world"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := encodeRequest(1, 0, "calc", tc.method, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			body := append([]byte(nil), req.Bytes()[frameHeader:]...)
			PutEncoder(req)
			rep := oa.dispatchBody(body, false, 0, 0)
			out, err := decodeReply(rep.Bytes()[frameHeader:])
			PutEncoder(rep)
			if err != nil || len(out) != 1 || out[0] != tc.want {
				t.Fatalf("%s = %v, %v; want [%v]", tc.method, out, err, tc.want)
			}
			assertZeroAlloc(t, func() { PutEncoder(oa.dispatchBody(body, false, 0, 0)) })
		})
	}
	// Dark: with metrics off and no trace, dispatchBody skips the RED
	// bracket entirely.
	t.Run("dark", func(t *testing.T) {
		obs.SetMetricsEnabled(false)
		defer obs.SetMetricsEnabled(true)
		req, err := encodeRequest(1, 0, "calc", "add", []any{2.5, 3.25})
		if err != nil {
			t.Fatal(err)
		}
		body := append([]byte(nil), req.Bytes()[frameHeader:]...)
		PutEncoder(req)
		calls0 := serverRED("add").calls.Value()
		rep := oa.dispatchBody(body, false, 0, 0)
		out, err := decodeReply(rep.Bytes()[frameHeader:])
		PutEncoder(rep)
		if err != nil || len(out) != 1 || out[0] != 5.75 {
			t.Fatalf("add = %v, %v; want [5.75]", out, err)
		}
		if got := serverRED("add").calls.Value(); got != calls0 {
			t.Fatalf("dark dispatch moved server calls %d -> %d", calls0, got)
		}
		assertZeroAlloc(t, func() { PutEncoder(oa.dispatchBody(body, false, 0, 0)) })
	})
}

func TestTransportEchoZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"inproc", &transport.InProc{}, "za"},
		{"shm", transport.SHM{}, filepath.Join(t.TempDir(), "ep")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan transport.Conn, 1)
			go func() {
				c, _ := l.Accept() // nil on failure
				accepted <- c
			}()
			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				l.Close()
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			peer := <-accepted
			// Stop accepting before measuring: an idle shm listener rescans
			// its directory every few hundred µs, and those allocations would
			// land in the measured loop.
			l.Close()
			if peer == nil {
				t.Fatal("accept failed")
			}
			t.Cleanup(func() { peer.Close() })
			go func() {
				for {
					f, err := peer.Recv()
					if err != nil {
						return
					}
					err = peer.Send(f)
					transport.ReleaseFrame(f)
					if err != nil {
						return
					}
				}
			}()
			msg := []byte("8 bytes!")
			assertZeroAlloc(t, func() {
				if err := c.Send(msg); err != nil {
					t.Fatal(err)
				}
				f, err := c.Recv()
				if err != nil || len(f) != len(msg) {
					t.Fatalf("echo = %q, %v", f, err)
				}
				transport.ReleaseFrame(f)
			})
		})
	}
}

// The InvokeArena tests run a whole remote call at steady state: a served
// adapter (server read loop, dispatch worker, arena decode, CallSink reply)
// answering a raw client connection over inproc and shm. Their names date
// from the client-side arena invoke these round trips used to end in; the
// client now decodes results into fresh values, so the raw reply frame is
// where the measured loop stops.

func TestInvokeArenaZeroAllocScalar(t *testing.T) {
	remoteZeroAlloc(t, "add", []any{2.5, 3.25}, 5.75)
}

func TestInvokeArenaZeroAllocSlice(t *testing.T) {
	xs := make([]float64, 1024)
	var sum float64
	for i := range xs {
		xs[i] = float64(i%7) * 0.5
		sum += xs[i]
	}
	remoteZeroAlloc(t, "sum", []any{xs}, sum)
}

func TestInvokeArenaZeroAllocString(t *testing.T) {
	remoteZeroAlloc(t, "echo", []any{"world"}, "world")
}

func remoteZeroAlloc(t *testing.T, method string, args []any, want any) {
	t.Helper()
	req, err := encodeRequest(1, 0, "calc", method, args)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), req.Bytes()...)
	PutEncoder(req)
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"inproc", &transport.InProc{}, "za"},
		{"shm", transport.SHM{}, filepath.Join(t.TempDir(), "ep")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oa := NewObjectAdapter()
			if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
				t.Fatal(err)
			}
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			srv := Serve(oa, l)
			t.Cleanup(srv.Close)
			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			call := func() []byte {
				if err := c.Send(frame); err != nil {
					t.Fatal(err)
				}
				rep, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			rep := call()
			out, err := decodeReply(rep[frameHeader:])
			transport.ReleaseFrame(rep)
			if err != nil || len(out) != 1 || out[0] != want {
				t.Fatalf("%s = %v, %v; want [%v]", method, out, err, want)
			}
			// The reply proves the server accepted the connection; stop
			// accepting before measuring, as in TestTransportEchoZeroAlloc.
			l.Close()
			assertZeroAlloc(t, func() { transport.ReleaseFrame(call()) })
		})
	}
}
