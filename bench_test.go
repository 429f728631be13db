package repro

// This file and bench_dist_test.go are the reproduction's one experiment
// harness: a benchmark family per row of DESIGN.md §3's index (E1–E9 and
// the ablations here, E10–E15 in bench_dist_test.go). The paper (HPDC
// 1999) has no results tables — it is a standards proposal — so each
// experiment operationalizes one of its quantitative claims (C1–C5) or
// architecture figures (F1–F3); EXPERIMENTS.md records the outcomes.
//
//	go test -run '^$' -bench . -benchmem .                 everything
//	go test -run '^$' -bench 'E1_|E4_' .                   selected experiments
//	go test -run '^$' -bench Ablation .                    the design-choice ablations
//	go test -run '^$' -short -bench . -benchtime 1x .      smoke: one iteration, small E13
//	go test -run '^$' -bench 'E5_|E10_' -count 5 -cpu 1,2 . the interleaved ratios
//
// Where a ratio between rows is the claim, the rows differ in one
// key=value name element (mode=, client=, fabric=, impl=, fastpath=, …)
// that benchstat -col can put side by side; -cpu 1,2 adds the multi-core
// rows. E5 and E10 instead alternate their sides inside one row (the
// interleaved estimator) and report the median per-round ratio, because
// on a shared machine the drift between back-to-back rows exceeds the
// effect. Rows that are not times (p50/p99, hit %, sheds, iterations,
// ratios) are b.ReportMetric values with their own unit; E5 and E13–E15
// fail the run when the property they guard does not hold.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/collective"
	"repro/internal/cca/framework"
	"repro/internal/esi"
	"repro/internal/hydro"
	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/orb"
	"repro/internal/sidl"
	"repro/internal/sidl/codegen"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

// sink defeats dead-code elimination.
var sink float64

// benchOp is a minimal fine-grain operator implementing the generated
// EsiOperator binding.
type benchOp struct{ n int }

func (o *benchOp) TypeName() string { return "bench.Op" }
func (o *benchOp) Rows() int32      { return int32(o.n) }
func (o *benchOp) Apply(x []float64, y *[]float64) error {
	out := *y
	for i := range out {
		out[i] = 2 * x[i]
	}
	return nil
}

type portProvider struct{ op *benchOp }

func (p *portProvider) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(p.op, cca.PortInfo{Name: "op", Type: esi.TypeOperator})
}

type portUser struct{ svc cca.Services }

func (u *portUser) SetServices(svc cca.Services) error {
	u.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "op", Type: esi.TypeOperator})
}

// wireOp installs a benchOp provider "p" and a user "u" in a fresh
// framework and, when connect is set, connects u.op to p.op.
func wireOp(b *testing.B, opts framework.Options, connect bool) (*framework.Framework, cca.Services) {
	b.Helper()
	fw := framework.New(opts)
	user := &portUser{}
	if err := fw.Install("p", &portProvider{op: &benchOp{n: 4}}); err != nil {
		b.Fatal(err)
	}
	if err := fw.Install("u", user); err != nil {
		b.Fatal(err)
	}
	if connect {
		if _, err := fw.Connect("u", "op", "p", "op"); err != nil {
			b.Fatal(err)
		}
	}
	return fw, user.svc
}

// sumServer is the E2 servant, also the remote workload of E2b, E7b, E10
// and E12.
type sumServer struct{}

func (sumServer) Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// BindSkeleton gives the ORB a direct func binding (Babel-skeleton
// style), keeping reflect method values — and their per-call receiver
// allocation — out of the measured dispatch path.
func (s sumServer) BindSkeleton(bind func(string, any)) { bind("sum", s.Sum) }

func sumInfo(b *testing.B) *sreflect.TypeInfo {
	b.Helper()
	f, err := sidl.Parse(`package bench { interface Sum { double sum(in array<double,1> xs); } }`)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		b.Fatal(err)
	}
	for _, ti := range sreflect.FromTable(tbl) {
		if ti.QName == "bench.Sum" {
			return ti
		}
	}
	b.Fatal("bench.Sum missing")
	return nil
}

// serveORB serves a fresh object adapter on tr until b ends and returns
// it with the bound address.
func serveORB(b *testing.B, tr transport.Transport, addr string, opts orb.ServeOptions) (*orb.ObjectAdapter, string) {
	b.Helper()
	oa := orb.NewObjectAdapter()
	l, err := tr.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	srv := orb.ServeWith(oa, l, opts)
	b.Cleanup(srv.Close)
	return oa, srv.Addr()
}

// serveSum serves a sumServer under key "sum" on tr and returns a client
// dialled to it (closed when b ends) and the server's address.
func serveSum(b *testing.B, tr transport.Transport, addr string) (*orb.Client, string) {
	b.Helper()
	oa, addr := serveORB(b, tr, addr, orb.ServeOptions{})
	if err := oa.Register("sum", sumInfo(b), sumServer{}); err != nil {
		b.Fatal(err)
	}
	c, err := orb.DialClient(tr, addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c, addr
}

// invokeSum is one two-way "sum" call through any client's Invoke.
func invokeSum(invoke func(key, method string, args ...any) ([]any, error), xs []float64) error {
	res, err := invoke("sum", "sum", xs)
	if err == nil {
		sink = res[0].(float64)
	}
	return err
}

// benchCalls times b.N sequential calls of fn.
func benchCalls(b *testing.B, fn func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCallers spreads b.N calls of fn over a fixed number of closed-loop
// caller goroutines: ns/op is wall time over completed calls, the
// throughput view concurrency improves.
func benchCallers(b *testing.B, callers int, fn func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := fn(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// goroutines forms an n-rank world on the goroutine backend.
func goroutines(n int) func(func(*mpi.Comm)) {
	return func(body func(*mpi.Comm)) { mpi.Run(n, body) }
}

// benchRanks times b.N lock-step calls of a per-rank step on every rank
// of the world that run forms. setup runs once per rank and returns the
// step. Rank 0 owns the timer: it restarts it after one warm-up step and
// a barrier and stops it after the closing barrier, so forming and
// tearing down the world stay out of ns/op.
func benchRanks(b *testing.B, run func(func(*mpi.Comm)), setup func(c *mpi.Comm) (step func() error, err error)) {
	b.Helper()
	run(func(c *mpi.Comm) {
		failed := func(err error) bool {
			if err != nil {
				b.Errorf("rank %d: %v", c.Rank(), err)
			}
			return err != nil
		}
		step, err := setup(c)
		if failed(err) || failed(step()) || failed(c.Barrier()) {
			return
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if failed(step()) {
				return
			}
		}
		if !failed(c.Barrier()) && c.Rank() == 0 {
			b.StopTimer()
		}
	})
}

// quantile sorts lat and returns its p-quantile.
func quantile(lat []time.Duration, p float64) time.Duration {
	slices.Sort(lat)
	return lat[int(p*float64(len(lat)-1))]
}

// interleaved is the paired estimator of E5 and E10. It times the sides
// of one comparison in rounds, each side once per round, and rotates
// which side goes first from round to round, so drift of the machine
// during the run (the session swing) falls on every side alike and
// cancels in the per-round ratios that report takes.
type interleaved struct {
	names  []string
	sides  []func() error
	ns     [][]float64 // ns[side][round]
	rounds int
}

// newInterleaved sizes the samples for a warm-up round and b.N more, so
// recording them allocates nothing that B/op would count.
func newInterleaved(b *testing.B, names []string, sides ...func() error) *interleaved {
	iv := &interleaved{names: names, sides: sides, ns: make([][]float64, len(sides))}
	for s := range iv.ns {
		iv.ns[s] = make([]float64, 0, b.N+1)
	}
	return iv
}

// round runs and times every side once, starting at side rounds mod
// len(sides).
func (iv *interleaved) round() error {
	n := len(iv.sides)
	for k := range n {
		s := (iv.rounds + k) % n
		start := time.Now()
		if err := iv.sides[s](); err != nil {
			return fmt.Errorf("%s: %w", iv.names[s], err)
		}
		iv.ns[s] = append(iv.ns[s], float64(time.Since(start)))
	}
	iv.rounds++
	return nil
}

// report skips the first round, a warm-up, and reports over the rest each
// side's median time divided by div as "<name>-<unit>" and, for every side
// after the first, the median of its per-round ratio to the first side as
// "<name>/<first>".
func (iv *interleaved) report(b *testing.B, div float64, unit string) {
	median := func(xs []float64) float64 {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return xs[(len(xs)-1)/2]
	}
	base := iv.ns[0][1:]
	if len(base) == 0 {
		return
	}
	for s, name := range iv.names {
		ns := iv.ns[s][1:]
		b.ReportMetric(median(ns)/div, name+"-"+unit)
		if s == 0 {
			continue
		}
		ratio := make([]float64, len(ns))
		for i := range ns {
			ratio[i] = ns[i] / base[i]
		}
		b.ReportMetric(median(ratio), name+"/"+iv.names[0])
	}
}

// reportQuantiles reports the p50 and p99 of lat in multiples of scale
// as "p50-<unit>" and "p99-<unit>" (unit like "ms/pull"), and returns the
// p99.
func reportQuantiles(b *testing.B, lat []time.Duration, scale time.Duration, unit string) time.Duration {
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	b.ReportMetric(float64(p50)/float64(scale), "p50-"+unit)
	b.ReportMetric(float64(p99)/float64(scale), "p99-"+unit)
	return p99
}

// ---------------------------------------------------------------------------
// E1 — C1+C2 (§6.2): per-call overhead of the connection mechanisms.
// Direct Go call vs direct-connected port vs SIDL stub (2–3 calls) vs
// reflective DMI.
// ---------------------------------------------------------------------------

func benchApply(b *testing.B, op esi.EsiOperator) {
	b.Helper()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	benchCalls(b, func() error { return op.Apply(x, &y) })
	sink = y[0]
}

// connectedOp returns the operator a user fetches through GetPort from a
// framework built with opts. Without a Proxy it must be the provider's
// very interface value (C1: "no penalty").
func connectedOp(b *testing.B, opts framework.Options) esi.EsiOperator {
	b.Helper()
	_, svc := wireOp(b, opts, true)
	port, err := svc.GetPort("op")
	if err != nil {
		b.Fatal(err)
	}
	return port.(esi.EsiOperator)
}

// benchDMI is §5's dynamic method invocation path.
func benchDMI(b *testing.B) {
	info, ok := sreflect.Global.Lookup("esi.Operator")
	if !ok {
		b.Fatal("esi.Operator not registered")
	}
	obj, err := sreflect.NewObject(info, &benchOp{n: 4})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	benchCalls(b, func() error {
		_, err := obj.Call("apply", x, &y)
		return err
	})
	sink = y[0]
}

func BenchmarkE1_CallOverhead(b *testing.B) {
	b.Run("direct", func(b *testing.B) { benchApply(b, &benchOp{n: 4}) })
	b.Run("port", func(b *testing.B) { benchApply(b, connectedOp(b, framework.Options{})) })
	// C2: stub -> EPV -> skeleton, "approximately 2-3 function calls".
	b.Run("stub", func(b *testing.B) { benchApply(b, esi.NewEsiOperatorStub(&benchOp{n: 4})) })
	// Two stacked bindings — the upper bound of the paper's "2-3 calls"
	// estimate (caller-side and callee-side language bindings).
	b.Run("double-stub", func(b *testing.B) {
		benchApply(b, esi.NewEsiOperatorStub(esi.NewEsiOperatorStub(&benchOp{n: 4})))
	})
	b.Run("dmi", benchDMI)
}

// ---------------------------------------------------------------------------
// E2 — C3 (§3.3): the mandatory-marshaling ORB versus a direct port, by
// payload size; plus the genuinely remote TCP call for scale.
// ---------------------------------------------------------------------------

// SumPort is the port-interface equivalent of the ORB servant.
type SumPort interface {
	Sum(xs []float64) float64
}

var e2Sizes = []int{1, 16, 256, 4096, 65536}

func BenchmarkE2_DirectPortCall(b *testing.B) {
	for _, n := range e2Sizes {
		b.Run(fmt.Sprintf("floats=%d", n), func(b *testing.B) {
			var p SumPort = sumServer{}
			xs := make([]float64, n)
			b.SetBytes(int64(8 * n))
			benchCalls(b, func() error { sink = p.Sum(xs); return nil })
		})
	}
}

func BenchmarkE2_ORBInProcess(b *testing.B) {
	info := sumInfo(b)
	for _, n := range e2Sizes {
		b.Run(fmt.Sprintf("floats=%d", n), func(b *testing.B) {
			o := orb.NewInProcessORB()
			if err := o.OA.Register("sum", info, sumServer{}); err != nil {
				b.Fatal(err)
			}
			xs := make([]float64, n)
			b.SetBytes(int64(8 * n))
			benchCalls(b, func() error { return invokeSum(o.Invoke, xs) })
		})
	}
}

func BenchmarkE2_ORBRemoteTCP(b *testing.B) {
	for _, n := range e2Sizes {
		b.Run(fmt.Sprintf("floats=%d", n), func(b *testing.B) {
			c, _ := serveSum(b, transport.TCP{}, "127.0.0.1:0")
			xs := make([]float64, n)
			b.SetBytes(int64(8 * n))
			benchCalls(b, func() error { return invokeSum(c.Invoke, xs) })
		})
	}
}

// BenchmarkE2b_PipelinedVsSerial measures the multiplexed remote path:
// 1/4/16 callers keep requests in flight on one TCP connection. "mux" lets
// the pipelined client correlate concurrent calls on the wire, so N
// callers share round trips and writev windows; "serial" recreates the
// pre-multiplexing client — one outstanding request per connection — by
// wrapping Invoke in a mutex.
func BenchmarkE2b_PipelinedVsSerial(b *testing.B) {
	for _, n := range []int{1, 4096} {
		for _, callers := range []int{1, 4, 16} {
			for _, mode := range []string{"serial", "mux"} {
				b.Run(fmt.Sprintf("floats=%d/callers=%d/mode=%s", n, callers, mode), func(b *testing.B) {
					c, _ := serveSum(b, transport.TCP{}, "127.0.0.1:0")
					xs := make([]float64, n)
					call := func() error { return invokeSum(c.Invoke, xs) }
					if mode == "serial" {
						var mu sync.Mutex
						mux := call
						call = func() error {
							mu.Lock()
							defer mu.Unlock()
							return mux()
						}
					}
					b.SetBytes(int64(8 * n))
					benchCallers(b, callers, call)
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — C4 (§3.2/§6): JavaBeans-style event delivery versus port fan-out.
// ---------------------------------------------------------------------------

var e3Fanouts = []int{1, 4, 16, 64}

func BenchmarkE3_BeansEvents(b *testing.B) {
	for _, fan := range e3Fanouts {
		b.Run(fmt.Sprintf("listeners=%d", fan), func(b *testing.B) {
			bean := newBean("src")
			var acc float64
			for i := 0; i < fan; i++ {
				bean.AddListener("tick", beanListenerFunc(func(e beanEvent) {
					acc += e.Payload.(float64)
				}))
			}
			benchCalls(b, func() error { bean.Fire("tick", 1.5); return nil })
			sink = acc
		})
	}
}

// tickPort is the typed port equivalent of the event above.
type tickPort interface{ Tick(v float64) }

type tickSink struct{ acc float64 }

func (t *tickSink) Tick(v float64) { t.acc += v }
func (t *tickSink) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(t, cca.PortInfo{Name: "tick", Type: "bench.Tick"})
}

type tickUser struct{ svc cca.Services }

func (u *tickUser) SetServices(svc cca.Services) error {
	u.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "tick", Type: "bench.Tick"})
}

func BenchmarkE3_PortFanOut(b *testing.B) {
	for _, fan := range e3Fanouts {
		b.Run(fmt.Sprintf("listeners=%d", fan), func(b *testing.B) {
			fw := framework.New(framework.Options{})
			user := &tickUser{}
			if err := fw.Install("u", user); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < fan; i++ {
				name := fmt.Sprintf("s%d", i)
				if err := fw.Install(name, &tickSink{}); err != nil {
					b.Fatal(err)
				}
				if _, err := fw.Connect("u", "tick", name, "tick"); err != nil {
					b.Fatal(err)
				}
			}
			ports, err := user.svc.GetPorts("tick")
			if err != nil {
				b.Fatal(err)
			}
			typed := make([]tickPort, len(ports))
			for i, p := range ports {
				typed[i] = p.(tickPort)
			}
			benchCalls(b, func() error {
				for _, p := range typed {
					p.Tick(1.5)
				}
				return nil
			})
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — C5 (§6.3): collective-port redistribution across map shapes.
// ---------------------------------------------------------------------------

// benchTransfer times one src→dst redistribution per op on a goroutine
// world; forced disables the matched-maps fast path.
func benchTransfer(b *testing.B, world int, src, dst collective.Side, forced bool) {
	b.Helper()
	plan, err := collective.NewPlan(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * plan.GlobalLen()))
	benchRanks(b, goroutines(world), func(c *mpi.Comm) (func() error, error) {
		local := make([]float64, plan.SrcLocalLen(c.Rank()))
		out := make([]float64, plan.DstLocalLen(c.Rank()))
		if forced {
			return func() error { return plan.TransferForced(c, local, out) }, nil
		}
		return func() error { return plan.Transfer(c, local, out) }, nil
	})
	b.ReportMetric(float64(plan.Messages()), "msgs/op")
}

func ranks(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func BenchmarkE4_Redistribution(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		for _, tc := range []struct {
			name     string
			world    int
			src, dst collective.Side
		}{
			{"matched4to4", 4, collective.Block(n, ranks(0, 4)), collective.Block(n, ranks(0, 4))},
			{"block4toCyclic4", 8, collective.Block(n, ranks(0, 4)), collective.Cyclic(n, 64, ranks(4, 4))},
			{"scatter1to4", 5, collective.Serial(n, 0), collective.Block(n, ranks(1, 4))},
			{"gather4to1", 5, collective.Block(n, ranks(0, 4)), collective.Serial(n, 4)},
			{"block2to8", 10, collective.Block(n, ranks(0, 2)), collective.Block(n, ranks(2, 8))},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
				benchTransfer(b, tc.world, tc.src, tc.dst, false)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — F1 (§2) and claim C1 (§6.2): the full semi-implicit timestep,
// ports-wired against the same hydro.Stepper driven directly, across cohort
// sizes. Every rank builds both on one cohort and takes one step of each
// per op, first side swapped every op, so the session swing falls on both
// alike; ports/direct is the median of the per-op ratios. The run fails
// when the two owned fields differ in any bit after an op.
// ---------------------------------------------------------------------------

func BenchmarkE5_Figure1Pipeline(b *testing.B) {
	const dt = 0.01
	for _, p := range []int{1, 2, 4} {
		for _, grid := range []int{32, 64} {
			m := mesh.StructuredQuad(grid, grid)
			b.Run(fmt.Sprintf("p=%d/grid=%d", p, grid), func(b *testing.B) {
				b.ReportAllocs()
				var rank0 *interleaved
				diverged := make([]error, p)
				benchRanks(b, goroutines(p), func(comm *mpi.Comm) (func() error, error) {
					flow, direct, err := benchSides(comm, m, p)
					if err != nil {
						return nil, err
					}
					iv := newInterleaved(b, []string{"direct", "ports"},
						func() error { _, err := direct.Step(dt); return err },
						func() error { _, err := flow.Step(dt); return err })
					if comm.Rank() == 0 {
						rank0 = iv
					}
					return func() error {
						if err := iv.round(); err != nil {
							return err
						}
						if err := sameBits(flow.LocalData(), direct.OwnedField()); err != nil && diverged[comm.Rank()] == nil {
							diverged[comm.Rank()] = fmt.Errorf("rank %d after round %d: ports and direct fields differ: %w", comm.Rank(), iv.rounds, err)
						}
						return nil
					}, nil
				})
				if err := errors.Join(diverged...); err != nil {
					b.Fatalf("%v", err)
				}
				if rank0 != nil {
					rank0.report(b, 1e3, "µs/step")
				}
			})
		}
	}
}

// benchConfig is E5's physics, shared by both sides. A steady source
// keeps per-step solve work constant, so the benchmark is not chasing a
// decaying field.
var benchConfig = hydro.Config{
	Nu: 1, Tol: 1e-8, Prec: "jacobi",
	Source: func(x, y float64) float64 {
		dx, dy := x-0.3, y-0.6
		return 4 * math.Exp(-30*(dx*dx+dy*dy))
	},
}

// benchSides builds E5's two sides on comm's rank: mesh and flow
// components wired in a cohort framework, and a Stepper over the mesh
// component's decomposition with no framework.
func benchSides(comm *mpi.Comm, m *mesh.Mesh, p int) (*hydro.FlowComponent, *hydro.Stepper, error) {
	mc, err := hydro.NewMeshComponent(m, "rcb", p, comm.Rank())
	if err != nil {
		return nil, nil, err
	}
	fc, err := hydro.NewFlowComponent(comm, benchConfig)
	if err != nil {
		return nil, nil, err
	}
	c := framework.NewCohort(comm, framework.Options{})
	if err := c.InstallParallel("mesh", func(int) cca.Component { return mc }); err != nil {
		return nil, nil, err
	}
	if err := c.InstallParallel("flow", func(int) cca.Component { return fc }); err != nil {
		return nil, nil, err
	}
	if _, err := c.ConnectParallel("flow", "mesh", "mesh", "mesh"); err != nil {
		return nil, nil, err
	}
	direct, err := hydro.NewStepper(comm, mc.Decomp(), benchConfig)
	return fc, direct, err
}

// sameBits reports the first index at which got and want differ in any bit.
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("index %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// E6 — F3 (§6.1): connection-mechanism throughput and the dynamic-attach
// latency of §2.2.
// ---------------------------------------------------------------------------

func BenchmarkE6_ConnectDisconnect(b *testing.B) {
	fw, _ := wireOp(b, framework.Options{}, false)
	benchCalls(b, func() error {
		id, err := fw.Connect("u", "op", "p", "op")
		if err != nil {
			return err
		}
		return fw.Disconnect(id)
	})
}

// getRelease is one GetPort/ReleasePort pair on the wired user's "op".
func getRelease(svc cca.Services) error {
	_, err := svc.GetPort("op")
	if err == nil {
		svc.ReleasePort("op")
	}
	return err
}

func BenchmarkE6_GetPort(b *testing.B) {
	_, svc := wireOp(b, framework.Options{}, true)
	benchCalls(b, func() error { return getRelease(svc) })
}

// BenchmarkE6_GetPortParallel measures GetPort/ReleasePort contention across
// goroutines. With the framework's RWMutex-plus-snapshot connection state the
// read hot path takes only a read lock, so throughput should scale with
// GOMAXPROCS (-cpu 1,2) instead of serializing on a single mutex.
func BenchmarkE6_GetPortParallel(b *testing.B) {
	_, svc := wireOp(b, framework.Options{}, true)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := getRelease(svc); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE6_DynamicAttachSnapshot(b *testing.B) {
	// Time from "attach request" to first frame delivered, amortized:
	// plan + one pull per iteration over a 4-rank field.
	const p = 4
	m := mesh.StructuredQuad(24, 24)
	part := mesh.RCB{}.PartitionNodes(m, p)
	benchRanks(b, goroutines(p+1), func(world *mpi.Comm) (func() error, error) {
		d, err := mesh.Decompose(m, part, p, 0)
		if err != nil {
			return nil, err
		}
		side, err := hydro.SideOf(d)
		if err != nil {
			return nil, err
		}
		me := world.Rank()
		var local []float64
		if me < p {
			local = make([]float64, side.Map.LocalLen(me))
		}
		return func() error {
			plan, err := collective.NewPlan(side, collective.Serial(m.NumNodes(), p))
			if err != nil {
				return err
			}
			var out []float64
			if me == p {
				out = make([]float64, m.NumNodes())
			}
			return plan.Transfer(world, local, out)
		}, nil
	})
}

// ---------------------------------------------------------------------------
// E7 — §5: SIDL toolchain throughput and binding-generation cost.
// ---------------------------------------------------------------------------

func BenchmarkE7_SIDLToolchain(b *testing.B) {
	var src string
	for _, f := range []string{"esi.sidl", "ports.sidl"} {
		data, err := os.ReadFile(filepath.Join("internal", "esi", f))
		if err != nil {
			b.Fatal(err)
		}
		src += string(data) + "\n"
	}
	parsed, err := sidl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := sidl.Resolve(parsed)
	if err != nil {
		b.Fatal(err)
	}
	for _, stage := range []struct {
		name string
		pass func() error
	}{
		{"lex", func() error { _, err := sidl.Lex(src); return err }},
		{"parse", func() error { _, err := sidl.Parse(src); return err }},
		{"resolve", func() error { _, err := sidl.Resolve(parsed); return err }},
		{"codegen", func() error {
			_, err := codegen.Generate(tbl, codegen.Options{PackageName: "x", Reflection: true})
			return err
		}},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			benchCalls(b, stage.pass)
		})
	}
}

// BenchmarkE7b_Supervision measures what supervision costs on the happy
// path: the same remote call over one TCP connection, through the bare
// multiplexed client and through the Supervised wrapper (classification,
// idempotent retry bookkeeping, circuit-breaker check, heartbeat timer
// armed). The robustness machinery must not erode claim C1 — the target
// is staying within 5% of the unsupervised path.
func BenchmarkE7b_Supervision(b *testing.B) {
	for _, n := range []int{1, 4096} {
		xs := make([]float64, n)
		b.Run(fmt.Sprintf("floats=%d/client=bare", n), func(b *testing.B) {
			c, _ := serveSum(b, transport.TCP{}, "127.0.0.1:0")
			benchCalls(b, func() error { return invokeSum(c.Invoke, xs) })
		})
		b.Run(fmt.Sprintf("floats=%d/client=supervised", n), func(b *testing.B) {
			_, addr := serveSum(b, transport.TCP{}, "127.0.0.1:0")
			sup, err := orb.DialSupervised(transport.TCP{}, addr, orb.SupervisorOptions{
				Idempotent: orb.AllIdempotent,
				Heartbeat:  time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sup.Close()
			benchCalls(b, func() error { return invokeSum(sup.Invoke, xs) })
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — §2.2/ESI: solver component swap, time-to-solution through identical
// port wiring.
// ---------------------------------------------------------------------------

func BenchmarkE8_SolverSwap(b *testing.B) {
	for _, grid := range []int{32, 64} {
		a := linalg.Poisson2D(grid, grid)
		rhs := make([]float64, a.NRows)
		if err := a.Apply(linalg.Ones(a.NCols), rhs); err != nil {
			b.Fatal(err)
		}
		for _, method := range []string{"cg", "gmres", "bicgstab"} {
			for _, prec := range []string{"none", "jacobi", "sor", "ilu0"} {
				b.Run(fmt.Sprintf("grid=%d/%s-%s", grid, method, prec), func(b *testing.B) {
					solver := wireBenchSolver(b, a, method, prec)
					solver.SetTolerance(1e-8)
					var iters int32
					benchCalls(b, func() (err error) {
						x := make([]float64, a.NRows)
						iters, err = solver.Solve(rhs, &x)
						return err
					})
					b.ReportMetric(float64(iters), "iters/op")
				})
			}
		}
	}
}

func wireBenchSolver(b *testing.B, a *linalg.CSR, method, prec string) esi.EsiSolver {
	b.Helper()
	fw := framework.New(framework.Options{TypeCheck: esi.TypeChecker()})
	if err := fw.Install("op", esi.NewOperatorComponent(a)); err != nil {
		b.Fatal(err)
	}
	if err := fw.Install("solver", esi.NewSolverComponent(method)); err != nil {
		b.Fatal(err)
	}
	if err := fw.Install("prec", esi.NewPreconditionerComponent(prec)); err != nil {
		b.Fatal(err)
	}
	for _, c := range [][4]string{
		{"solver", "A", "op", "A"}, {"prec", "A", "op", "A"}, {"solver", "M", "prec", "M"},
	} {
		if _, err := fw.Connect(c[0], c[1], c[2], c[3]); err != nil {
			b.Fatal(err)
		}
	}
	comp, _ := fw.Component("solver")
	return comp.(esi.EsiSolver)
}

// ---------------------------------------------------------------------------
// E9 — §6.3 substrate: MPI collective scaling by rank count and payload.
// ---------------------------------------------------------------------------

// allreduceStep and bcastStep are the per-rank collective steps E9 and
// E15 time: every rank contributes (or rank 0 broadcasts) floats doubles.
func allreduceStep(floats int) func(c *mpi.Comm) (func() error, error) {
	return func(c *mpi.Comm) (func() error, error) {
		data := make([]float64, floats)
		return func() error { _, err := c.AllreduceFloat64(data, mpi.Sum); return err }, nil
	}
}

func bcastStep(floats int) func(c *mpi.Comm) (func() error, error) {
	return func(c *mpi.Comm) (func() error, error) {
		var in []float64
		if c.Rank() == 0 {
			in = make([]float64, floats)
		}
		return func() error { _, err := c.Bcast(0, in); return err }, nil
	}
}

func BenchmarkE9_MPICollectives(b *testing.B) {
	for _, p := range []int{2, 4, 8, 16} {
		for _, n := range []int{1, 1024, 131072} {
			b.Run(fmt.Sprintf("bcast/p=%d/floats=%d", p, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				benchRanks(b, goroutines(p), bcastStep(n))
			})
			b.Run(fmt.Sprintf("allreduce/p=%d/floats=%d", p, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				benchRanks(b, goroutines(p), allreduceStep(n))
			})
		}
		b.Run(fmt.Sprintf("barrier/p=%d", p), func(b *testing.B) {
			benchRanks(b, goroutines(p), func(c *mpi.Comm) (func() error, error) {
				return c.Barrier, nil
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations — the design choices DESIGN.md §3 calls out, each as the
// mechanism enabled versus disabled.
// ---------------------------------------------------------------------------

// §6.2's "optionally translated through a proxy": the framework
// interposes the SIDL stub between user and provider.
func BenchmarkAblation_ProxyInterposition(b *testing.B) {
	b.Run("proxy=off", func(b *testing.B) { benchApply(b, connectedOp(b, framework.Options{})) })
	b.Run("proxy=on", func(b *testing.B) {
		benchApply(b, connectedOp(b, framework.Options{
			Proxy: func(p cca.Port, info cca.PortInfo) cca.Port {
				return esi.NewEsiOperatorStub(p.(esi.EsiOperator))
			},
		}))
	})
}

// The matched-cardinality fast path (rank-local copies, zero messages)
// against the same transfer forced through the mailbox.
func BenchmarkAblation_MatchedFastPath(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		side := collective.Block(n, ranks(0, 4))
		b.Run(fmt.Sprintf("n=%d/fastpath=on", n), func(b *testing.B) { benchTransfer(b, 4, side, side, false) })
		b.Run(fmt.Sprintf("n=%d/fastpath=off", n), func(b *testing.B) { benchTransfer(b, 4, side, side, true) })
	}
}

// The SIDL binding with static stub dispatch against reflection-based
// dynamic invocation of the same method.
func BenchmarkAblation_ReflectionDispatch(b *testing.B) {
	b.Run("dispatch=stub", func(b *testing.B) { benchApply(b, esi.NewEsiOperatorStub(&benchOp{n: 4})) })
	b.Run("dispatch=dmi", benchDMI)
}

// Partitioner choice: RCB vs greedy BFS, as edge cut (the communication
// proxy) and the halo exchange time it buys.
func BenchmarkAblation_Partitioner(b *testing.B) {
	for _, name := range []string{"rcb", "greedy"} {
		for _, p := range []int{2, 4} {
			m := mesh.StructuredQuad(48, 48)
			pt, err := mesh.NewPartitioner(name)
			if err != nil {
				b.Fatal(err)
			}
			part := pt.PartitionNodes(m, p)
			b.Run(fmt.Sprintf("p=%d/part=%s", p, name), func(b *testing.B) {
				benchRanks(b, goroutines(p), func(comm *mpi.Comm) (func() error, error) {
					dec, err := mesh.Decompose(m, part, p, comm.Rank())
					if err != nil {
						return nil, err
					}
					field := make([]float64, dec.NumLocal())
					return func() error { return dec.Exchange(comm, field) }, nil
				})
				b.ReportMetric(float64(mesh.EdgeCut(m, part)), "edgecut")
			})
		}
	}
}
