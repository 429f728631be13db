package main

import (
	"embed"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/ccl"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

//go:embed workloads/*.ccl
var documents embed.FS

// compileDoc runs one embedded document through the whole assembly path:
// parse → validate → resolve → lock → compile. The lockfile lives in lockDir
// so the first compile of a process creates it and later ones verify it.
func compileDoc(name, lockDir string, vars map[string]string) (*ccl.Assembly, error) {
	src, err := documents.ReadFile("workloads/" + name)
	if err != nil {
		return nil, err
	}
	doc, err := ccl.Parse(string(src), ccl.ParseOptions{Path: name, Vars: vars})
	if err != nil {
		return nil, err
	}
	return ccl.Compile(doc, ccl.Options{LockPath: filepath.Join(lockDir, name+".lock")})
}

// rpcWorkload is rpc.small and rpc.bulk: two closed-loop callers invoke
// EsiOperator.Apply on a remote operator through connected uses ports.
// One op is one call; every checkEvery-th reply is compared with the
// answer the same matrix gives locally.
type rpcWorkload struct {
	rows        int // operator size: vectors are 8·rows bytes each way
	warm, calls int // per caller: warm-up calls (part of set-up), measured calls
}

const (
	rpcCallers = 2
	checkEvery = 64
)

// rpcSession is one compiled pair of assemblies.
type rpcSession struct {
	server, client *ccl.Assembly
	compileMs      float64
	x, want        []float64 // the argument every call sends, and A·x
}

func (w rpcWorkload) open(seed int64, lockDir string) (*rpcSession, error) {
	t0 := time.Now()
	server, err := compileDoc("rpc-server.ccl", lockDir, map[string]string{"ROWS": strconv.Itoa(w.rows)})
	if err != nil {
		return nil, err
	}
	client, err := compileDoc("rpc-client.ccl", lockDir, map[string]string{"SERVER_ADDR": server.Exports[0].Addr})
	if err != nil {
		server.Close()
		return nil, err
	}
	s := &rpcSession{server: server, client: client, compileMs: time.Since(t0).Seconds() * 1e3}
	rng := rand.New(rand.NewSource(seed))
	s.x = make([]float64, w.rows)
	for i := range s.x {
		s.x[i] = rng.NormFloat64()
	}
	s.want = make([]float64, w.rows)
	return s, linalg.Laplace1D(w.rows).Apply(s.x, s.want)
}

func (s *rpcSession) close() {
	s.client.Close()
	s.server.Close()
}

// call is one op: fetch the connected port, apply, release. check compares
// the whole reply with the local answer.
func (s *rpcSession) call(caller *ccl.Consumer, y *[]float64, check bool) (time.Duration, bool) {
	t0 := time.Now()
	port, err := caller.Port()
	if err != nil {
		return time.Since(t0), false
	}
	err = port.(esi.EsiOperator).Apply(s.x, y)
	caller.Release()
	d := time.Since(t0)
	if err != nil || len(*y) != len(s.want) {
		return d, false
	}
	if check {
		for i, v := range *y {
			if v != s.want[i] {
				return d, false
			}
		}
	}
	return d, true
}

// drive runs n calls on each caller at once and returns caller 0's
// latencies, the wall time of the phase and the number of failed calls.
func (s *rpcSession) drive(n int, rec *recorder) (lat []int64, wall time.Duration, failed int) {
	var wg sync.WaitGroup
	fails := make([]int, rpcCallers)
	lat = make([]int64, 0, n)
	start := time.Now()
	for c := 0; c < rpcCallers; c++ {
		comp, _ := s.client.App.Component("caller" + strconv.Itoa(c))
		caller := comp.(*ccl.Consumer)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			y := make([]float64, len(s.x))
			for i := 0; i < n; i++ {
				if c == 0 {
					rec.nextOp()
					rec.begin("dist.call")
				}
				d, ok := s.call(caller, &y, i%checkEvery == 0)
				if c == 0 {
					rec.end()
					lat = append(lat, int64(d))
				}
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, f := range fails {
		failed += f
	}
	return lat, wall, failed
}

func (w rpcWorkload) episode(seed int64, lockDir string, rec *recorder) (episode, error) {
	t0 := time.Now()
	s, err := w.open(seed, lockDir)
	if err != nil {
		return episode{}, err
	}
	defer s.close()
	if _, _, failed := s.drive(w.warm, nil); failed > 0 {
		return episode{}, fmt.Errorf("rpc: %d warm-up calls failed", failed)
	}
	runtime.GC()
	ep := episode{setup: time.Since(t0), ops: rpcCallers * w.calls, buildMs: s.compileMs}
	mem := markMem()
	ep.opNs, ep.wall, ep.failed = s.drive(w.calls, rec)
	ep.allocBytes, ep.heapBytes = mem.since()
	return ep, nil
}

func (w rpcWorkload) run(c runConfig) (summary, map[string]metric, error) {
	lockDir, err := os.MkdirTemp(tmpDir(), "lock-*")
	if err != nil {
		return summary{}, nil, err
	}
	defer os.RemoveAll(lockDir)
	one := func(rec *recorder) (episode, error) { return w.episode(c.seed, lockDir, rec) }
	if !c.trace {
		eps, err := runEpisodes(c.budget, c.minEpisodes, func() (episode, error) { return one(nil) })
		return summarize(eps), nil, err
	}
	before, flushBefore := counters(), flushWindow()
	sOff, sOn, rec, err := offOn(c, one)
	if err != nil {
		return summary{}, nil, err
	}
	out := sOff.common(sOn)
	// Counter deltas cover the instrumented episodes: every call of both
	// callers, warm-up included.
	calls := float64(sOn.episodes * rpcCallers * (w.warm + w.calls))
	out["transport.bytes_sent_per_op"] = metric{before.delta("transport.bytes_sent") / calls, "B"}
	out["transport.frames_per_flush"] = metric{flushWindowMean(flushBefore), "count"}
	out["orb.supervised.retries"] = metric{before.delta("orb.supervised.retries"), "count"}
	out["orb.supervised.redials"] = metric{before.delta("orb.supervised.redials"), "count"}
	out["orb.server.shed"] = metric{before.delta("orb.server.shed"), "count"}
	out["assembly.ccl_compile_ms"] = metric{sOff.buildMs, "ms"}
	if err := w.telescope(c.seed, lockDir, out); err != nil {
		return summary{}, nil, err
	}
	return sOff, out, writeTrace(c, rec.spans, out)
}

// telescope measures one call at each depth of the stack, one caller at a
// time, so the differences are the layers: the wire alone, marshalling
// alone, the bare ORB client over the wire, and the supervised port.
//
//	wire                = transport.tcp_rtt_us
//	marshal             = orb.marshal_us
//	ORB over the wire   = orb.remote_call_us − wire − marshal   (orb.over_wire_us)
//	supervision + port  = dist.supervised_call_us − orb.remote_call_us   (dist.supervision_us)
//
// The four rows add up to dist.supervised_call_us by construction.
func (w rpcWorkload) telescope(seed int64, lockDir string, out map[string]metric) error {
	s, err := w.open(seed, lockDir)
	if err != nil {
		return err
	}
	defer s.close()
	n := 4000
	if w.rows > 4096 {
		n = 300
	}
	p50 := func(op func() error) (float64, error) {
		lat := make([]int64, 0, n)
		for i := 0; i < n+n/10; i++ {
			t0 := time.Now()
			if err := op(); err != nil {
				return 0, err
			}
			if i >= n/10 {
				lat = append(lat, int64(time.Since(t0)))
			}
		}
		return medianNs(lat) / 1e3, nil
	}
	y := make([]float64, w.rows)

	// The request carries x and y, the reply y: the frames the wire sees.
	req, err := orb.EncodeAll(s.x, y)
	if err != nil {
		return err
	}
	rep, err := orb.EncodeAll(y)
	if err != nil {
		return err
	}
	wire := exchangeRTT("tcp", len(req), len(rep))
	marshal, err := p50(func() error {
		b, err := orb.EncodeAll(s.x, y)
		if err == nil {
			_, err = orb.DecodeAll(b)
		}
		if err == nil {
			b, err = orb.EncodeAll(y)
		}
		if err == nil {
			_, err = orb.DecodeAll(b)
		}
		return err
	})
	if err != nil {
		return err
	}

	inproc := orb.NewInProcessORB()
	ti, ok := sreflect.Global.Lookup(esi.TypeMatrixData)
	if !ok {
		return fmt.Errorf("rpc: no reflection metadata for %s", esi.TypeMatrixData)
	}
	if err := inproc.OA.Register("op/A", ti, esi.NewOperatorComponent(linalg.Laplace1D(w.rows))); err != nil {
		return err
	}
	inprocUs, err := p50(func() error { _, err := inproc.Invoke("op/A", "apply", s.x, y); return err })
	if err != nil {
		return err
	}

	bare, err := orb.DialClient(transport.TCP{}, s.server.Exports[0].Addr)
	if err != nil {
		return err
	}
	defer bare.Close()
	remote, err := p50(func() error { _, err := bare.Invoke("op/A", "apply", s.x, y); return err })
	if err != nil {
		return err
	}

	comp, _ := s.client.App.Component("caller0")
	caller := comp.(*ccl.Consumer)
	supervised, err := p50(func() error {
		if _, ok := s.call(caller, &y, false); !ok {
			return fmt.Errorf("rpc: supervised call failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["transport.tcp_rtt_us"] = metric{wire, "us"}
	out["orb.marshal_us"] = metric{marshal, "us"}
	out["orb.inproc_call_us"] = metric{inprocUs, "us"}
	out["orb.remote_call_us"] = metric{remote, "us"}
	out["orb.over_wire_us"] = metric{remote - wire - marshal, "us"}
	out["dist.supervised_call_us"] = metric{supervised, "us"}
	out["dist.supervision_us"] = metric{supervised - remote, "us"}
	return nil
}
