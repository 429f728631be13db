package orb

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sidl/arena"
	"repro/internal/transport"
)

// Steady-state allocation tests for the InvokeArena path: after warmup,
// a full remote round trip — encode, send, server receive, arena decode,
// CallSink dispatch, reply encode, send, client receive, arena decode —
// must allocate nothing on either side. Client and server share the
// process here, so testing.AllocsPerRun charges BOTH sides to the
// measured figure; 0 means the whole loop is clean, not just the client.

func newRemoteCalc(t *testing.T, tr transport.Transport, addr string) *Client {
	t.Helper()
	oa := NewObjectAdapter()
	if err := oa.Register("calc", calcInfo(t), calcImpl{}); err != nil {
		t.Fatal(err)
	}
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(oa, l)
	t.Cleanup(srv.Stop)
	c, err := DialClient(tr, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// A reply proves the server accepted the connection; then stop
	// accepting. An idle shm listener rescans its directory every few
	// hundred µs, and those allocations would land in the measured loop.
	if _, err := c.Invoke("calc", "add", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	return c
}

func eachZeroAllocTransport(t *testing.T, f func(t *testing.T, c *Client)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) { f(t, newRemoteCalc(t, &transport.InProc{}, "za")) })
	t.Run("shm", func(t *testing.T) { f(t, newRemoteCalc(t, transport.SHM{}, filepath.Join(t.TempDir(), "ep"))) })
}

func measureZeroAlloc(t *testing.T, c *Client, args []any, check func(t *testing.T, out []any)) {
	t.Helper()
	ar := new(arena.Arena)
	out := make([]any, 0, 4)
	call := func() []any {
		ar.Reset()
		var err error
		out, err = c.InvokeArena(ar, out[:0], "calc", "add", args)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Warm every pool on both sides (encoders, frames, reply channels,
	// arenas, sinks), then settle the pools' GC generation so a collection
	// during measurement finds them in the victim cache, not empty.
	for i := 0; i < 50; i++ {
		check(t, call())
	}
	if raceEnabled {
		t.Skip("allocation counts are unmeasurable under the race runtime")
	}
	runtime.GC()
	if n := testing.AllocsPerRun(200, func() { call() }); n != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", n)
	}
	check(t, call())
}

func TestInvokeArenaZeroAllocScalar(t *testing.T) {
	args := []any{2.5, 3.25} // boxed once, outside the measured loop
	eachZeroAllocTransport(t, func(t *testing.T, c *Client) {
		measureZeroAlloc(t, c, args, func(t *testing.T, out []any) {
			if len(out) != 1 || out[0].(float64) != 5.75 {
				t.Fatalf("out = %v", out)
			}
		})
	})
}

func TestInvokeArenaZeroAllocSlice(t *testing.T) {
	// Slice argument: exercises the arena's []float64 decode on the
	// server (tagFloat64Slice) and the SIMD pack on the client encode.
	xs := make([]float64, 1024)
	var want float64
	for i := range xs {
		xs[i] = float64(i%7) * 0.5
		want += xs[i]
	}
	eachZeroAllocTransport(t, func(t *testing.T, c *Client) {
		ar := new(arena.Arena)
		out := make([]any, 0, 4)
		args := []any{xs}
		call := func() {
			ar.Reset()
			var err error
			out, err = c.InvokeArena(ar, out[:0], "calc", "sum", args)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 1 || out[0].(float64) != want {
				t.Fatalf("out = %v, want [%v]", out, want)
			}
		}
		for i := 0; i < 50; i++ {
			call()
		}
		if raceEnabled {
			t.Skip("allocation counts are unmeasurable under the race runtime")
		}
		runtime.GC()
		if n := testing.AllocsPerRun(200, call); n != 0 {
			t.Fatalf("steady-state allocs/op = %v, want 0", n)
		}
	})
}

func TestInvokeArenaZeroAllocString(t *testing.T) {
	// String round trip: arena-backed argument decode and an arena-backed
	// result string on the client (the servant's "hello "+who concat is a
	// real allocation the server pays; strings stay off the floor here by
	// design decision, so this test asserts correctness plus a low bound
	// rather than zero).
	eachZeroAllocTransport(t, func(t *testing.T, c *Client) {
		ar := new(arena.Arena)
		out := make([]any, 0, 4)
		args := []any{"world"}
		call := func() {
			ar.Reset()
			var err error
			out, err = c.InvokeArena(ar, out[:0], "calc", "greet", args)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 1 || out[0].(string) != "hello world" {
				t.Fatalf("out = %v", out)
			}
		}
		for i := 0; i < 50; i++ {
			call()
		}
		if raceEnabled {
			t.Skip("allocation counts are unmeasurable under the race runtime")
		}
		runtime.GC()
		// One concat in the servant, nothing else.
		if n := testing.AllocsPerRun(200, call); n > 1 {
			t.Fatalf("steady-state allocs/op = %v, want <= 1", n)
		}
	})
}
