package repro

// E10–E15: the experiments on the distributed stack (observability,
// cross-process collective pulls, the transport matrix, the serving
// tier, live recovery, the SPMD fabric). Shared fixtures and the run
// instructions are at the top of bench_test.go.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/cca"
	"repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/ckpt"
	dcollective "repro/internal/dist/collective"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/simd"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------------
// E10 — C1 guard: what the observability layer costs on the remote TCP
// hot path (per-method RED metrics and, when enabled, a span per call)
// and on the direct-connect GetPort path (one gated sharded-counter
// increment). Dark, metrics on (the shipping default), metrics + tracing;
// the default must stay within 5% of dark remotely and at ~0% on GetPort.
// The configurations alternate inside one sub-benchmark per path and size
// (the interleaved estimator; one op is one round of every configuration),
// and "<cfg>/dark" is the median of the per-round ratios, because machine
// drift between back-to-back runs exceeds the effect.
// ---------------------------------------------------------------------------

func BenchmarkE10_Observability(b *testing.B) {
	configs := []struct {
		name             string
		metrics, tracing bool
	}{{"dark", false, false}, {"metrics", true, false}, {"metrics+trace", true, true}}
	configure := func(metrics, tracing bool) {
		obs.SetMetricsEnabled(metrics)
		obs.Tracer.SetEnabled(tracing)
	}
	defer configure(true, false) // the shipping defaults

	// run alternates the first n configurations, each side making calls
	// calls of fn under its own; GetPort is batched so that the clock
	// reads around a side do not swamp it.
	run := func(b *testing.B, n, calls int, fn func() error) {
		var names []string
		var sides []func() error
		for _, cfg := range configs[:n] {
			names = append(names, cfg.name)
			sides = append(sides, func() error {
				configure(cfg.metrics, cfg.tracing)
				for range calls {
					if err := fn(); err != nil {
						return err
					}
				}
				return nil
			})
		}
		iv := newInterleaved(b, names, sides...)
		b.ReportAllocs()
		if err := iv.round(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for range b.N {
			if err := iv.round(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		iv.report(b, float64(calls), "ns/call")
	}
	for _, n := range []int{1, 4096} {
		xs := make([]float64, n)
		b.Run(fmt.Sprintf("remote/floats=%d", n), func(b *testing.B) {
			c, _ := serveSum(b, transport.TCP{}, "127.0.0.1:0")
			run(b, 3, 1, func() error { return invokeSum(c.Invoke, xs) })
		})
	}
	b.Run("getport", func(b *testing.B) {
		_, svc := wireOp(b, framework.Options{}, true)
		run(b, 2, 256, func() error { return getRelease(svc) })
	})
}

// ---------------------------------------------------------------------------
// E11 — C5 (§6.3) across processes: an N-rank consumer cohort pulling a
// block-distributed array from an M-rank provider cohort over TCP
// loopback (both cohorts in this process — the transport path is the real
// cross-process path). Four reference rows calibrate each size: one
// memcpy of the payload; the floor of a cross-process transfer (four
// unavoidable passes over the bytes: pack, user→kernel, kernel→user,
// scatter); the raw framed transport streaming the same bytes; and the
// in-process E4 transfer for the same block→cyclic geometry. Target at
// 1e6 doubles: remote pull within 2x of the 4-pass floor.
// ---------------------------------------------------------------------------

// benchDistPort is a static in-memory DistArrayPort; its data never
// changes, so Snapshot lets the publisher retain it without copying.
type benchDistPort struct {
	side collective.Side
	data []float64
}

func (p *benchDistPort) Side() collective.Side { return p.side }
func (p *benchDistPort) LocalData() []float64  { return p.data }
func (p *benchDistPort) Snapshot() []float64   { return p.data }

// publishBlock publishes gl doubles block-distributed over m provider
// ranks as name on oa; element values identify their owner.
func publishBlock(b *testing.B, oa *orb.ObjectAdapter, name string, gl, m int) *dcollective.Publisher {
	b.Helper()
	srcMap := array.NewBlockMap(gl, m)
	ports := make([]collective.DistArrayPort, m)
	for r := range ports {
		data := make([]float64, srcMap.LocalLen(r))
		for i := range data {
			data[i] = float64(r*1000 + i%97)
		}
		ports[r] = &benchDistPort{side: collective.Side{Map: srcMap}, data: data}
	}
	pub, err := dcollective.Publish(oa, name, ports)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pub.Close)
	return pub
}

// attach dials one subscriber of name with the given consumer map,
// closed when b ends.
func attach(b *testing.B, addr, name string, consumer array.DataMap, opts dcollective.Options) *dcollective.Import {
	b.Helper()
	imp, err := dcollective.Attach(transport.TCP{}, addr, name, consumer, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { imp.Close() })
	return imp
}

func BenchmarkE11_CollectivePull(b *testing.B) {
	for _, gl := range []int{1_000, 1_000_000} {
		sized := func(name string, fn func(b *testing.B)) {
			b.Run(fmt.Sprintf("n=%d/%s", gl, name), func(b *testing.B) {
				b.SetBytes(int64(8 * gl))
				fn(b)
			})
		}
		src, dst := make([]float64, gl), make([]float64, gl)
		sized("memcpy", func(b *testing.B) {
			benchCalls(b, func() error { copy(dst, src); return nil })
		})
		sized("copyfloor", func(b *testing.B) {
			benchCalls(b, func() error {
				copy(dst, src)
				copy(src, dst)
				copy(dst, src)
				copy(src, dst)
				return nil
			})
		})
		sized("tcpstream", func(b *testing.B) { benchStream(b, 8*gl) })
		sized("inproc-2to2", func(b *testing.B) {
			benchTransfer(b, 4, collective.Block(gl, []int{0, 1}), collective.Cyclic(gl, 64, []int{2, 3}), false)
		})
		for _, m := range []int{1, 2, 4} {
			for _, n := range []int{1, 2, 4} {
				sized(fmt.Sprintf("remote-%dto%d", m, n), func(b *testing.B) {
					oa, addr := serveORB(b, transport.TCP{}, "127.0.0.1:0", orb.ServeOptions{})
					pub := publishBlock(b, oa, "bench", gl, m)
					dstMap := array.NewCyclicMap(gl, n, 64)
					imp := attach(b, addr, "bench", dstMap, dcollective.Options{})
					outs := make([][]float64, n)
					for r := range outs {
						outs[r] = make([]float64, dstMap.LocalLen(r))
					}
					// A new generation per pull, so every timed pull snapshots
					// and packs; without it all but the first are cache hits.
					benchCalls(b, func() error {
						pub.Advance()
						return imp.PullAllInto(context.Background(), outs)
					})
				})
			}
		}
	}
}

// benchStream times the framed transport carrying total bytes in 256 KiB
// frames over TCP loopback to a draining peer: what the socket path costs
// before any collective machinery is layered on it.
func benchStream(b *testing.B, total int) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	c, err := transport.TCP{}.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 256<<10)
	benchCalls(b, func() error {
		for s := 0; s < total; s += len(frame) {
			if err := c.Send(frame[:min(len(frame), total-s)]); err != nil {
				return err
			}
		}
		return nil
	})
	c.Close()
	l.Close()
	<-drained
}

// ---------------------------------------------------------------------------
// E12 — C1 (§6.2): what "same host" costs under each transport the ORB
// can ride: the in-process loopback (upper bound), the shared-memory
// rings (same host, different process — no kernel in the data path), and
// TCP loopback (the general case). Payload size × concurrent in-flight
// callers, the raw 8-byte echo under the ORB, and the SIMD kernels against
// their portable fallbacks.
// ---------------------------------------------------------------------------

func BenchmarkE12_TransportMatrix(b *testing.B) {
	for _, be := range []struct {
		name string
		tr   transport.Transport
		addr func(b *testing.B) string
	}{
		{"inproc", &transport.InProc{}, func(*testing.B) string { return "e12" }},
		{"shm", transport.SHM{}, func(b *testing.B) string { return filepath.Join(b.TempDir(), "ep") }},
		{"tcp", transport.TCP{}, func(*testing.B) string { return "127.0.0.1:0" }},
	} {
		// 1e6-double frames exceed the shm ring and stream through it.
		for _, n := range []int{1, 4096, 1_000_000} {
			for _, callers := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("invoke/floats=%d/callers=%d/tr=%s", n, callers, be.name), func(b *testing.B) {
					c, _ := serveSum(b, be.tr, be.addr(b))
					xs := make([]float64, n)
					benchCallers(b, callers, func() error { return invokeSum(c.Invoke, xs) })
				})
			}
		}
		// The transport without the ORB on top: an 8-byte ping-pong
		// against an echo goroutine. The ORB rows above add its
		// encode/dispatch machinery and two more goroutine hops.
		b.Run("rtt-raw/tr="+be.name, func(b *testing.B) {
			l, err := be.tr.Listen(be.addr(b))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				for {
					f, err := c.Recv()
					if err != nil || c.Send(f) != nil {
						return
					}
					transport.ReleaseFrame(f)
				}
			}()
			c, err := be.tr.Dial(l.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			msg := make([]byte, 8)
			benchCalls(b, func() error {
				if err := c.Send(msg); err != nil {
					return err
				}
				f, err := c.Recv()
				transport.ReleaseFrame(f)
				return err
			})
		})
	}
}

// BenchmarkE12_SIMDKernels prices the kernel dispatch against the
// portable fallbacks at 65536 doubles. With -tags noasm (or off amd64)
// both rows run the same Go code.
func BenchmarkE12_SIMDKernels(b *testing.B) {
	const n = 65536
	x, y := make([]float64, n), make([]float64, n)
	// Near-diagonal column pattern, as CSR rows from stencil/mesh
	// discretizations have: the gather stays within a few cache lines.
	cols := make([]int, n)
	for i := range x {
		x[i] = float64(i%17) * 0.25
		y[i] = float64(i%13) * 0.5
		cols[i] = min(max(i+i%9-4, 0), n-1)
	}
	buf := make([]byte, 8*n)
	for _, k := range []struct {
		name      string
		fast, ref func()
	}{
		{"dot", func() { sink = simd.Dot(x, y) }, func() { sink = simd.DotGo(x, y) }},
		{"spmv-row", func() { sink = simd.SpMVRow(x, cols, y) }, func() { sink = simd.SpMVRowGo(x, cols, y) }},
		{"pack", func() { simd.PackF64LE(buf, x) }, func() { simd.PackF64LEGo(buf, x) }},
		{"unpack", func() { simd.UnpackF64LE(x, buf) }, func() { simd.UnpackF64LEGo(x, buf) }},
	} {
		for _, impl := range []struct {
			name string
			fn   func()
		}{{simd.Backend(), k.fast}, {"go", k.ref}} {
			b.Run(k.name+"/impl="+impl.name, func(b *testing.B) {
				b.SetBytes(8 * n)
				benchCalls(b, func() error { impl.fn(); return nil })
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E13 — §2.2 at serving-tier scale: a thousand standing supervised
// subscribers pulling a 1e6-double array through the epoch snapshot
// cache (96 × 1e5 under -short). One op is a wave — Advance, then every
// subscriber pulls the new epoch once, 16 at a time (the baseline's
// concurrency, so the p99 comparison isolates serving-tier overhead from
// raw queueing). Acceptance: fan-out p99 within 2× of the 16-subscriber
// p99; frame-cache hit rate > 90%; under overload, sheds > 0 and
// backoffs > 0 with no redial and every pull completing — the last three
// fail the run.
// ---------------------------------------------------------------------------

func BenchmarkE13_ServingTier(b *testing.B) {
	gl, subs := 1_000_000, 1000
	if testing.Short() {
		gl, subs = 100_000, 96
	}
	const window = 16
	oa, addr := serveORB(b, transport.TCP{}, "127.0.0.1:0", orb.ServeOptions{})
	pub := publishBlock(b, oa, "field", gl, 2)
	attachAll := func(b *testing.B, n int) []*dcollective.Import {
		imps := make([]*dcollective.Import, n)
		for i := range imps {
			imps[i] = attach(b, addr, "field", array.NewSerialMap(gl), dcollective.Options{})
		}
		return imps
	}
	// Pull buffers are shared through a pool sized to the concurrency
	// window — a thousand private 8 MB buffers would dwarf the tier
	// under test.
	bufs := make(chan []float64, window)
	for i := 0; i < window; i++ {
		bufs <- make([]float64, gl)
	}
	// wave has every subscriber pull the current epoch once and returns
	// each pull's service latency, measured from window admission so
	// queue wait is excluded.
	wave := func(b *testing.B, imps []*dcollective.Import) []time.Duration {
		lat := make([]time.Duration, len(imps))
		var wg sync.WaitGroup
		for i, imp := range imps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := <-bufs
				t0 := time.Now()
				if err := imp.PullContext(context.Background(), 0, buf); err != nil {
					b.Errorf("pull: %v", err)
				}
				lat[i] = time.Since(t0)
				bufs <- buf
			}()
		}
		wg.Wait()
		return lat
	}
	// waves warms imps on the current generation (plan exchange, first
	// epoch pack), then times b.N waves.
	waves := func(b *testing.B, imps []*dcollective.Import) (p99 time.Duration) {
		wave(b, imps)
		var lat []time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pub.Advance()
			lat = append(lat, wave(b, imps)...)
		}
		b.StopTimer()
		return reportQuantiles(b, lat, time.Millisecond, "ms/pull")
	}

	var baseP99 time.Duration
	b.Run(fmt.Sprintf("baseline/subs=%d", window), func(b *testing.B) {
		baseP99 = waves(b, attachAll(b, window))
	})
	b.Run(fmt.Sprintf("fanout/subs=%d", subs), func(b *testing.B) {
		t0 := time.Now()
		fan := attachAll(b, subs)
		attached := time.Since(t0)
		pub.Advance()
		before := obs.Default.Snapshot().Counters
		p99 := waves(b, fan)
		after := obs.Default.Snapshot().Counters
		hits := after["collective.frame_cache_hits"] - before["collective.frame_cache_hits"]
		misses := after["collective.frame_cache_misses"] - before["collective.frame_cache_misses"]
		hitPct := 100 * float64(hits) / float64(hits+misses)
		b.ReportMetric(attached.Seconds()*1e3, "attach-ms")
		b.ReportMetric(hitPct, "hit-%")
		if baseP99 > 0 {
			b.ReportMetric(float64(p99)/float64(baseP99), "p99/baseline")
		}
		if hitPct <= 90 {
			b.Fatalf("frame cache hit rate %.1f%% (%d hits / %d misses) under the 90%% floor", hitPct, hits, misses)
		}
	})
	b.Run("overload", benchOverload)
}

// benchOverload saturates a MaxInflight=2 server with 16 unpaced
// subscribers per op and asserts the shed/backoff machinery end to end:
// typed refusals on the server, backoff-without-redial on the clients,
// and every pull completing anyway.
func benchOverload(b *testing.B) {
	const gl, subs = 4096, 16
	oa, addr := serveORB(b, transport.TCP{}, "127.0.0.1:0", orb.ServeOptions{MaxInflight: 2})
	publishBlock(b, oa, "field", gl, 2)
	imps := make([]*dcollective.Import, subs)
	for i := range imps {
		imps[i] = attach(b, addr, "field", array.NewSerialMap(gl), dcollective.Options{Supervisor: orb.SupervisorOptions{
			Retry:       transport.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond},
			MaxAttempts: 20,
		}})
	}
	before := obs.Default.Snapshot().Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, imp := range imps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]float64, gl)
				deadline := time.Now().Add(30 * time.Second)
				// An attempt budget exhausted while shed is not the end:
				// the point is that overload is retryable, not fatal.
				err := imp.PullContext(context.Background(), 0, buf)
				for orb.IsOverloaded(err) && time.Now().Before(deadline) {
					err = imp.PullContext(context.Background(), 0, buf)
				}
				if err != nil {
					b.Errorf("pull under overload: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	after := obs.Default.Snapshot().Counters
	delta := func(name string) int64 { return int64(after[name] - before[name]) }
	sheds, backoffs, redials := delta("orb.server.shed"), delta("orb.supervised.overload_backoffs"), delta("orb.supervised.redials")
	b.ReportMetric(float64(sheds)/float64(b.N), "sheds/op")
	b.ReportMetric(float64(backoffs)/float64(b.N), "backoffs/op")
	b.ReportMetric(float64(redials)/float64(b.N), "redials/op")
	if sheds == 0 || backoffs == 0 {
		b.Fatalf("overload injection did not fire (sheds=%d backoffs=%d)", sheds, backoffs)
	}
	if redials != 0 {
		b.Fatalf("overload caused %d redials; a shed must keep the connection", redials)
	}
}

// ---------------------------------------------------------------------------
// E14 — §2.2 upgraded live. Checkpoint prices the ckpt wire format (what
// a RestartPolicy replay or a swap's state transfer costs at 8 KiB, 1 MiB
// and 64 MiB of solver state); SwapWindow measures what callers
// experience during Framework.Swap — the quiesce-drain-rewire window,
// during which new GetPort acquisitions shed with the typed retryable
// cca.ErrPortQuiescing and nothing else.
// ---------------------------------------------------------------------------

// ckptVec is a minimal Checkpointable: one named float64 vector, the
// shape of real solver state.
type ckptVec struct{ data []float64 }

func (v *ckptVec) Checkpoint(w io.Writer) error {
	cw := ckpt.NewWriter(w)
	cw.Float64s("x", v.data)
	return cw.Close()
}

func (v *ckptVec) Restore(r io.Reader) error {
	cr, err := ckpt.NewReader(r)
	if err != nil {
		return err
	}
	v.data, err = cr.Float64s("x")
	return err
}

func BenchmarkE14_Checkpoint(b *testing.B) {
	for _, sz := range []struct {
		name  string
		bytes int
	}{{"8KiB", 8 << 10}, {"1MiB", 1 << 20}, {"64MiB", 64 << 20}} {
		v := &ckptVec{data: make([]float64, sz.bytes/8)}
		var buf bytes.Buffer
		buf.Grow(sz.bytes + 1024)
		b.Run("checkpoint/"+sz.name, func(b *testing.B) {
			b.SetBytes(int64(sz.bytes))
			benchCalls(b, func() error { buf.Reset(); return v.Checkpoint(&buf) })
		})
		b.Run("restore/"+sz.name, func(b *testing.B) {
			buf.Reset()
			if err := v.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
			into := &ckptVec{}
			b.SetBytes(int64(sz.bytes))
			benchCalls(b, func() error { return ckpt.Unmarshal(buf.Bytes(), into) })
		})
	}
}

// swapAdder is the swappable component under load: provides "add",
// carries one float64 of state across swaps.
type swapAdder struct{ bias float64 }

func (a *swapAdder) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(a, cca.PortInfo{Name: "add", Type: "bench.Add"})
}

func (a *swapAdder) Compute(x float64) float64 { return x + a.bias }

func (a *swapAdder) Checkpoint(w io.Writer) error {
	cw := ckpt.NewWriter(w)
	cw.Float64("bias", a.bias)
	return cw.Close()
}

func (a *swapAdder) Restore(r io.Reader) error {
	cr, err := ckpt.NewReader(r)
	if err != nil {
		return err
	}
	a.bias, err = cr.Float64("bias")
	return err
}

type swapUser struct{ svc cca.Services }

func (u *swapUser) SetServices(svc cca.Services) error {
	u.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "add", Type: "bench.Add"})
}

// BenchmarkE14_SwapWindow hot-swaps the instance b.N times, state carried
// each time, while 4 workers hammer its port. The run fails if a worker
// ever sees anything but the typed retryable shed, or state that did not
// survive a swap.
func BenchmarkE14_SwapWindow(b *testing.B) {
	const workers = 4
	fw := framework.New(framework.Options{})
	u := &swapUser{}
	if err := fw.Install("adder", &swapAdder{bias: 1}); err != nil {
		b.Fatal(err)
	}
	if err := fw.Install("load", u); err != nil {
		b.Fatal(err)
	}
	if _, err := fw.Connect("load", "add", "adder", "add"); err != nil {
		b.Fatal(err)
	}
	var stop atomic.Bool
	var calls, sheds atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				port, err := u.svc.GetPort("add")
				if errors.Is(err, cca.ErrPortQuiescing) {
					// Back off as the error asks: a tight retry loop holds
					// the swapper and the port's holders off the CPU.
					sheds.Add(1)
					runtime.Gosched()
					continue
				}
				if err != nil {
					b.Errorf("worker saw a non-retryable error: %v", err)
					return
				}
				if got := port.(*swapAdder).Compute(1); got < 2 {
					b.Errorf("stale state after swap: %v", got)
					return
				}
				u.svc.ReleasePort("add")
				calls.Add(1)
			}
		}()
	}
	// Each swap waits until the load has made calls since the previous
	// one, so every window is measured against live traffic rather than a
	// not-yet-scheduled worker pool. Only the swaps themselves are timed.
	windows := make([]time.Duration, b.N)
	var last int64
	for i := range windows {
		for calls.Load() <= last && !b.Failed() {
			time.Sleep(50 * time.Microsecond)
		}
		last = calls.Load()
		start := time.Now()
		if err := fw.Swap("adder", &swapAdder{}); err != nil {
			b.Fatal(err)
		}
		windows[i] = time.Since(start)
	}
	var total time.Duration
	for _, w := range windows {
		total += w
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
	reportQuantiles(b, windows, time.Microsecond, "µs/swap")
	b.ReportMetric(float64(calls.Load())/float64(b.N), "calls/op")
	b.ReportMetric(float64(sheds.Load())/float64(b.N), "sheds/op")
}

// ---------------------------------------------------------------------------
// E15 — F1/§6.3: the same collective code over the three comm
// fabrics a cohort can run on — the goroutine backend (channels, one
// address space), and the process backend over tcp loopback and over shm
// rings. The process backends pay the full wire path: codec, transport
// framing, and (for tcp) the kernel socket stack, so the spread is the
// price of leaving the address space — and the shm rows show how much of
// that price is sockets rather than process isolation. Allreduce is
// latency-bound at 8 B and bandwidth-bound at 1 MiB; Alltoall stresses
// the mesh with p−1 simultaneous pairwise streams per rank.
// ---------------------------------------------------------------------------

// procWorld forms an n-rank process-backend world whose rendezvous is at
// addr.
func procWorld(b *testing.B, n int, addr string) func(func(*mpi.Comm)) {
	return func(body func(*mpi.Comm)) {
		if err := mpi.RunOver(n, addr, func(c *mpi.Comm, _ *mpi.Proc) { body(c) }); err != nil {
			b.Fatal(err)
		}
	}
}

func tcpWorld(b *testing.B, n int) func(func(*mpi.Comm)) {
	return procWorld(b, n, "tcp://127.0.0.1:0")
}

func shmWorld(b *testing.B, n int) func(func(*mpi.Comm)) {
	return procWorld(b, n, "shm://"+filepath.Join(b.TempDir(), "rv"))
}

func BenchmarkE15_SPMDFabric(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, bytes := range []int{8, 32 << 10, 1 << 20} {
			for _, be := range []struct {
				name  string
				world func(b *testing.B, n int) func(func(*mpi.Comm))
			}{
				{"goroutine", func(_ *testing.B, n int) func(func(*mpi.Comm)) { return goroutines(n) }},
				{"proc-tcp", tcpWorld},
				{"proc-shm", shmWorld},
			} {
				b.Run(fmt.Sprintf("allreduce/p=%d/bytes=%d/fabric=%s", p, bytes, be.name), func(b *testing.B) {
					b.SetBytes(int64(bytes))
					benchRanks(b, be.world(b, p), allreduceStep(bytes/8))
				})
				// Every rank sends a bytes-long chunk to each peer —
				// p·bytes on the wire per rank, p·(p−1) pairwise streams.
				b.Run(fmt.Sprintf("alltoall/p=%d/bytes=%d/fabric=%s", p, bytes, be.name), func(b *testing.B) {
					b.SetBytes(int64(bytes))
					benchRanks(b, be.world(b, p), func(c *mpi.Comm) (func() error, error) {
						parts := make([]any, p)
						for i := range parts {
							parts[i] = make([]float64, bytes/8)
						}
						return func() error { _, err := c.Alltoall(parts); return err }, nil
					})
				})
			}
		}
	}
}

// BenchmarkE15_ShmBeatsTcp is the fabric's small-message gate: the median
// 8-byte allreduce on 4 ranks must be faster over shm rings than over tcp
// loopback, or the run fails. The median, from at least 200 individually
// timed calls, because with more ranks than Ps the shm mean carries a
// tail of waiter sleep phases (DESIGN.md §10) that comes and goes between
// runs. ns/op is the shm median.
func BenchmarkE15_ShmBeatsTcp(b *testing.B) {
	median := func(run func(func(*mpi.Comm))) time.Duration {
		lat := make([]time.Duration, max(b.N, 200))
		run(func(c *mpi.Comm) {
			step, _ := allreduceStep(1)(c)
			for i := range lat {
				t0 := time.Now()
				if err := step(); err != nil {
					b.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				if c.Rank() == 0 {
					lat[i] = time.Since(t0)
				}
			}
		})
		return quantile(lat, 0.50)
	}
	shm, tcp := median(shmWorld(b, 4)), median(tcpWorld(b, 4))
	b.ReportMetric(float64(shm.Nanoseconds()), "ns/op")
	b.ReportMetric(float64(tcp.Nanoseconds()), "tcp-ns/op")
	b.ReportMetric(float64(tcp)/float64(shm), "tcp/shm")
	if shm >= tcp {
		b.Fatalf("shm did not beat tcp on small-message latency: median %v vs %v", shm, tcp)
	}
}
