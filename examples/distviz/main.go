// Distviz demonstrates the distributed collective port: Figure 1's
// visualization tool attaching, from a separate OS process, to a parallel
// simulation's distributed array — §6.3's M→N redistribution carried over
// §6.1's distributed connection instead of an in-process transfer.
//
// The parent process is the "simulation": an M-rank cohort holding a
// block-distributed wave field that it keeps evolving. It publishes the
// cohort's DistArray ports over TCP loopback (or, with -transport shm,
// over the same-host shared-memory rings) and re-executes itself as the
// "viz" child process. The child attaches with a different distribution (a
// cyclic map over N ranks), installs the attachment into a local framework
// as an ordinary provides port, and pulls frames through it — each frame
// an epoch-consistent snapshot redistributed as chunked bulk frames.
//
// Mid-run, an injected fault severs the viz connection. Supervision
// surfaces it as a connection-degraded event through the framework's
// configuration API, redials, announces connection-restored, and the
// interrupted pull completes with correct data — the event pair every
// remote port flavor shares.
//
// Run:
//
//	go run ./examples/distviz [-m 2] [-n 3] [-len 40000] [-frames 4] [-transport tcp|shm]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/cca"
	ccoll "repro/internal/cca/collective"
	"repro/internal/cca/framework"
	dcoll "repro/internal/dist/collective"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/viz"
)

func main() {
	var (
		m        = flag.Int("m", 2, "simulation cohort ranks (provider)")
		n        = flag.Int("n", 3, "viz cohort ranks (consumer)")
		gl       = flag.Int("len", 40000, "global array length")
		frames   = flag.Int("frames", 4, "frames the viz pulls")
		sever    = flag.Int("sever", 25, "sever viz connection after this many frames sent (0 = never)")
		subs     = flag.Int("subs", 0, "after the viz run, fan one frozen frame out to this many concurrent supervised subscribers")
		viz      = flag.Bool("viz", false, "run as the viz child process")
		addr     = flag.String("addr", "", "simulation address (viz mode)")
		trName   = flag.String("transport", "tcp", "cross-process transport: tcp or shm")
		simOnly  = flag.Bool("sim-only", false, "publish the simulation and block (no viz child); attach with ccafe load examples/distviz/distviz.ccl")
		addrFile = flag.String("addr-file", "", "write the simulation address to this file (sim-only mode)")
	)
	flag.Parse()
	if *trName != "tcp" && *trName != "shm" {
		log.Fatalf("unknown -transport %q (want tcp or shm)", *trName)
	}
	if *viz {
		runViz(*trName, *addr, *n, *gl, *frames, *sever)
		return
	}
	if *simOnly {
		runSimOnly(*trName, *m, *gl, *addrFile)
		return
	}
	runSim(*trName, *m, *n, *gl, *frames, *sever, *subs)
}

// startSim brings up the "simulation": an m-rank block-distributed wave
// field published over the chosen transport and evolved by a stepping
// goroutine until stop is called. Each timestep rewrites every rank inside
// Publisher.Update, so an epoch snapshot never straddles two steps, and
// every subscriber of a timestep shares one snapshot and one packed chunk
// stream.
func startSim(trName string, m, gl int) (srv *orb.Server, pub *dcoll.Publisher, stop func()) {
	dm := array.NewBlockMap(gl, m)
	fields := make([]*simField, m)
	ports := make([]ccoll.DistArrayPort, m)
	for r := 0; r < m; r++ {
		fields[r] = &simField{side: ccoll.Side{Map: dm}, data: make([]float64, dm.LocalLen(r))}
		ports[r] = fields[r]
	}
	step(fields, dm, 0)

	oa := orb.NewObjectAdapter()
	tr, listenAddr := pickTransport(trName)
	l, err := tr.Listen(listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	srv = orb.Serve(oa, l)
	pub, err = dcoll.Publish(oa, "wave", ports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim: publishing wave (%s) at %s\n", dm, srv.Addr())

	// Keep time-stepping while consumers pull: epochs isolate each frame
	// from the mutation.
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 1; ; s++ {
			select {
			case <-quit:
				return
			default:
				pub.Update(func() { step(fields, dm, s) })
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	return srv, pub, func() {
		close(quit)
		wg.Wait()
	}
}

// runSimOnly publishes the evolving wave field and blocks until stdin
// closes — the standing simulation a declaratively assembled viz (the
// checked-in distviz.ccl) attaches to from another process.
func runSimOnly(trName string, m, gl int, addrFile string) {
	srv, _, stop := startSim(trName, m, gl)
	defer srv.Close()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	// Block until the launcher closes stdin.
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck
	stop()
	fmt.Println("sim: done")
}

// pickTransport maps the -transport flag to a backend and a listen
// address: a kernel-assigned loopback port for tcp, a fresh directory
// for the shared-memory rings. Since sim and viz really are separate OS
// processes here, -transport shm exercises the cross-process mmap path,
// not an in-process shortcut.
func pickTransport(name string) (transport.Transport, string) {
	if name == "shm" {
		dir, err := os.MkdirTemp("", "distviz-shm-")
		if err != nil {
			log.Fatal(err)
		}
		return transport.SHM{}, filepath.Join(dir, "sim")
	}
	return transport.TCP{}, "127.0.0.1:0"
}

// simField is one simulation rank's chunk of the wave field. It takes no
// lock of its own: after Publish, the chunk is written only inside
// Publisher.Update and read only by the publisher's epoch snapshot, which
// exclude each other.
type simField struct {
	side ccoll.Side
	data []float64
}

func (f *simField) Side() ccoll.Side { return f.side }

func (f *simField) LocalData() []float64 { return append([]float64(nil), f.data...) }

// Snapshot implements ccoll.SnapshotPort: the copy LocalData makes is
// already retain-forever, so the publisher keeps it without a second pass.
func (f *simField) Snapshot() []float64 { return f.LocalData() }

// step writes field value s + g/1e6: every element encodes (step, global
// index) so the viz can verify both placement and epoch consistency.
func step(fields []*simField, m array.DataMap, s int) {
	for _, run := range m.Runs() {
		d := fields[run.Rank].data
		for k := 0; k < run.Global.Len(); k++ {
			g := run.Global.Lo + k
			d[run.Local+k] = float64(s) + float64(g)/1e6
		}
	}
}

func runSim(trName string, m, n, gl, frames, sever, subs int) {
	srv, pub, stop := startSim(trName, m, gl)
	defer srv.Close()

	// Re-exec this binary as the viz process, pointed at our address.
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	child := exec.Command(exe, "-viz",
		"-addr", srv.Addr(),
		"-transport", trName,
		"-n", strconv.Itoa(n),
		"-len", strconv.Itoa(gl),
		"-frames", strconv.Itoa(frames),
		"-sever", strconv.Itoa(sever))
	child.Stdout = os.Stdout
	child.Stderr = os.Stderr
	if err := child.Run(); err != nil {
		log.Fatalf("sim: viz process failed: %v", err)
	}
	stop()
	fmt.Println("sim: viz exited cleanly")
	if subs > 0 {
		runFanout(srv.Addr(), gl, subs, pub)
	}
}

// runFanout is the serving-tier smoke: freeze the field at one final
// generation and let `subs` concurrent supervised subscribers — each a
// serial viz.RemoteAttachment over its own TCP connection — pull the same
// frame. The publisher packs each chunk window once; every other
// subscriber is served the cached frame zero-copy, which is what the
// printed hit rate shows.
func runFanout(addr string, gl, subs int, pub *dcoll.Publisher) {
	pub.Advance() // one fresh generation for the whole fan-out
	before := obs.Default.Snapshot().Counters
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			att, err := viz.AttachRemote(transport.TCP{}, addr, "wave", gl, dcoll.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer att.Close()
			frame, err := att.Snapshot(context.Background())
			if err != nil {
				errs <- err
				return
			}
			// Every element encodes (step, global index); the frame must
			// be one un-torn timestep.
			s := math.Round(frame[0])
			for g, v := range frame {
				if math.Abs(v-s-float64(g)/1e6) > 1e-9 {
					errs <- fmt.Errorf("subscriber: global %d holds %v at step %.0f", g, v, s)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		log.Fatalf("sim: fan-out: %v", err)
	}
	after := obs.Default.Snapshot().Counters
	hits := after["collective.frame_cache_hits"] - before["collective.frame_cache_hits"]
	misses := after["collective.frame_cache_misses"] - before["collective.frame_cache_misses"]
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Printf("sim: fan-out %d subscribers in %v, frame cache %d hits / %d misses (%.1f%% hit rate)\n",
		subs, time.Since(start).Round(time.Millisecond), hits, misses, rate)
}

func runViz(trName, addr string, n, gl, frames, sever int) {
	if addr == "" {
		log.Fatal("viz: -addr required")
	}
	dm := array.NewCyclicMap(gl, n, 64)

	// The injected fault: the viz's dialed connections sever after a fixed
	// number of frames. On the first degraded event the fault plan is
	// cleared, so the supervised redial heals for good — one clean
	// degraded→restored cycle mid-run. Faulty wraps whichever backend was
	// picked, so the heal cycle runs over shm rings just as it does over
	// sockets.
	var inner transport.Transport = transport.TCP{}
	if trName == "shm" {
		inner = transport.SHM{}
	}
	faulty := transport.NewFaulty(inner, transport.Faults{SeverAfterSends: sever})
	var clearOnce sync.Once

	fw := framework.New(framework.Options{Flavor: cca.FlavorInProcess | cca.FlavorDistributed})
	fw.AddEventListener(cca.EventListenerFunc(func(e cca.Event) {
		switch e.Kind {
		case cca.EventConnectionDegraded, cca.EventConnectionRestored, cca.EventConnectionBroken:
			fmt.Printf("viz: event %s on %s\n", e.Kind, e.Component)
		}
		if e.Kind == cca.EventConnectionDegraded {
			clearOnce.Do(func() { faulty.SetFaults(transport.Faults{}) })
		}
	}))

	imp, err := dcoll.InstallRemoteDistArray(fw, "wave-proxy", "data", faulty, addr, "wave", dm, dcoll.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer imp.Close()
	fmt.Printf("viz: attached %s, provider has %d ranks\n", dm, imp.ProviderRanks())

	// Pull through the framework-mediated port, as any component would.
	viz := &vizComponent{}
	if err := fw.Install("viz", viz); err != nil {
		log.Fatal(err)
	}
	if _, err := fw.Connect("viz", "in", "wave-proxy", "data"); err != nil {
		log.Fatal(err)
	}
	port, err := viz.svc.GetPort("in")
	if err != nil {
		log.Fatal(err)
	}
	pull := port.(ccoll.PullPort)

	// Frame buffers are allocated once and reused across epochs: the pull
	// path scatters into them in place, so the steady-state frame loop
	// allocates nothing.
	outs := make([][]float64, n)
	for r := 0; r < n; r++ {
		outs[r] = make([]float64, pull.LocalLen(r))
	}
	for f := 0; f < frames; f++ {
		for r := 0; r < n; r++ {
			if err := pull.Pull(r, outs[r]); err != nil {
				log.Fatalf("viz: frame %d rank %d: %v", f, r, err)
			}
		}
		// Each element encodes (step, global index): verify placement and
		// that one rank's frame is a single epoch (no torn timestep).
		for r := 0; r < n; r++ {
			s := -1.0
			for _, run := range dm.Runs() {
				if run.Rank != r {
					continue
				}
				for k := 0; k < run.Global.Len(); k++ {
					g := run.Global.Lo + k
					v := outs[r][run.Local+k]
					gotStep := math.Round(v - float64(g)/1e6)
					if math.Abs(v-gotStep-float64(g)/1e6) > 1e-9 {
						log.Fatalf("viz: frame %d rank %d global %d holds %v — wrong placement", f, r, g, v)
					}
					if s < 0 {
						s = gotStep
					} else if s != gotStep {
						log.Fatalf("viz: frame %d rank %d mixes steps %v and %v — torn epoch", f, r, s, gotStep)
					}
				}
			}
			fmt.Printf("viz: frame %d rank %d consistent at sim step %.0f\n", f, r, s)
		}
	}
	fmt.Println("viz: done")
}

// vizComponent is the consuming component: one uses port of the pull type.
type vizComponent struct{ svc cca.Services }

func (v *vizComponent) SetServices(svc cca.Services) error {
	v.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "in", Type: ccoll.PullPortType})
}

func (v *vizComponent) RequiredFlavor() cca.Flavor { return cca.FlavorDistributed }
