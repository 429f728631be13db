package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/viz"
)

// fig1Params is the Figure 1 problem: a stiff semi-implicit transport step
// on a structured quad mesh. ν·dt is large so the CG solve iterates on
// every step of the run; the velocity is nonzero but inside the CFL bound
// dt·(|vx|+|vy|)·grid ≤ 1.
type fig1Params struct {
	grid        int // cells per side
	warm, steps int // warm-up steps (part of set-up), measured steps
	nu, dt, tol float64
	vel         [2]float64
	amp         float64 // amplitude of the initial bump and the source (from the seed)
}

// seeded sets the amplitude. The problem is linear, so another amplitude
// is another set of answers to check but the same work: CG stops on a
// relative residual, and its iteration counts do not move (moving the bump
// instead changes them by a few per cent, which would read as noise).
func (p fig1Params) seeded(seed int64) fig1Params {
	p.amp = 0.5 + 1.5*rand.New(rand.NewSource(seed)).Float64()
	return p
}

func (p fig1Params) initial(x, y float64) float64 {
	dx, dy := x-0.5, y-0.5
	return p.amp * math.Exp(-50*(dx*dx+dy*dy))
}

func (p fig1Params) source(x, y float64) float64 {
	dx, dy := x-0.3, y-0.6
	return 4 * p.amp * math.Exp(-30*(dx*dx+dy*dy))
}

// cohortRunner runs body on every rank of a fresh cohort and returns when
// all ranks have: mpi.Run for goroutine ranks, mpi.RunOver for ranks that
// talk through the wire codec and a shm:// transport mesh.
type cohortRunner func(body func(comm *mpi.Comm)) error

func goroutineRanks(p int) cohortRunner {
	return func(body func(comm *mpi.Comm)) error {
		mpi.Run(p, body)
		return nil
	}
}

func shmRanks(p int) cohortRunner {
	return func(body func(comm *mpi.Comm)) error {
		dir, err := os.MkdirTemp(tmpDir(), "shm-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		return mpi.RunOver(p, "shm://"+dir+"/rv", func(c *mpi.Comm, _ *mpi.Proc) { body(c) })
	}
}

// stepper is what an episode drives: the ports-wired driver or the twin.
type stepper interface {
	Step() (hydro.Stats, error)
}

// wiredStepper drives the pipeline the way a builder's Go button does.
type wiredStepper struct {
	driver *hydro.IntegratorComponent
	dt     float64
}

func (s wiredStepper) Step() (hydro.Stats, error) { return s.driver.Run(1, s.dt) }

// buildPipeline wires mesh → flow → integrator driver + stats monitor
// through the cohort framework, exactly as examples/chad does.
func buildPipeline(comm *mpi.Comm, m *mesh.Mesh, p fig1Params) (stepper, error) {
	mc, err := hydro.NewMeshComponent(m, "rcb", comm.Size(), comm.Rank())
	if err != nil {
		return nil, err
	}
	fc, err := hydro.NewFlowComponent(comm, hydro.Config{
		Nu: p.nu, Vel: p.vel, Tol: p.tol, Prec: "jacobi",
		InitialCondition: p.initial, Source: p.source,
	})
	if err != nil {
		return nil, err
	}
	driver := hydro.NewIntegratorComponent(1, p.dt)

	c := framework.NewCohort(comm, framework.Options{})
	install := func(name string, comp cca.Component) error {
		return c.InstallParallel(name, func(int) cca.Component { return comp })
	}
	connect := func(user, uses, provider, provides string) error {
		_, err := c.ConnectParallel(user, uses, provider, provides)
		return err
	}
	if err := install("mesh", mc); err != nil {
		return nil, err
	}
	if err := install("flow", fc); err != nil {
		return nil, err
	}
	if err := install("stats", &viz.StatsMonitor{}); err != nil {
		return nil, err
	}
	if err := c.VerifyPorts("flow"); err != nil {
		return nil, err
	}
	if err := connect("flow", "mesh", "mesh", "mesh"); err != nil {
		return nil, err
	}
	if err := connect("flow", "monitor", "stats", "monitor"); err != nil {
		return nil, err
	}
	if err := install("driver", driver); err != nil {
		return nil, err
	}
	if err := connect("driver", "flow", "flow", "flow"); err != nil {
		return nil, err
	}
	return wiredStepper{driver, p.dt}, nil
}

// fig1Run is what one episode hands back besides its timings.
type fig1Run struct {
	ep    episode
	stats []hydro.Stats // rank 0's Stats of every measured step
	root  stepper       // rank 0's stepper
}

// fig1Episode builds the problem from nothing on a fresh cohort, warms it
// up, and times p.steps timesteps on rank 0. build makes each rank's
// stepper. A rank that fails would leave its peers blocked in a
// collective, so any error inside the cohort ends the program.
func fig1Episode(run cohortRunner, p fig1Params, build func(comm *mpi.Comm, m *mesh.Mesh) (stepper, error)) (fig1Run, error) {
	var r fig1Run
	t0 := time.Now()
	m := mesh.StructuredQuad(p.grid, p.grid)
	err := run(func(comm *mpi.Comm) {
		root := comm.Rank() == 0
		step, err := build(comm, m)
		must(err)
		if root {
			// Mesh build, partition, decompose and wiring; the flow
			// component assembles its operator in the first warm-up step.
			r.ep.buildMs = time.Since(t0).Seconds() * 1e3
			r.root = step
		}
		for i := 0; i < p.warm; i++ {
			_, err := step.Step()
			must(err)
		}
		if root {
			runtime.GC()
		}
		must(comm.Barrier())
		var mem memMark
		start := time.Now()
		if root {
			r.ep.setup = start.Sub(t0)
			r.ep.opNs = make([]int64, 0, p.steps)
			r.stats = make([]hydro.Stats, 0, p.steps)
			mem = markMem()
			start = time.Now()
		}
		for i := 0; i < p.steps; i++ {
			ts := time.Now()
			st, err := step.Step()
			must(err)
			if root {
				r.ep.opNs = append(r.ep.opNs, int64(time.Since(ts)))
				r.stats = append(r.stats, st)
			}
		}
		must(comm.Barrier())
		if root {
			r.ep.wall = time.Since(start)
			r.ep.ops = p.steps
			r.ep.allocBytes, r.ep.heapBytes = mem.since()
		}
	})
	return r, err
}

// statsTol is the relative tolerance on Min/Max/Mean/Norm2 against the
// serial twin. Ranks reduce in a different order and may stop CG one
// iteration apart, so agreement is to solver tolerance, not to rounding.
const statsTol = 1e-8

// countWrong compares per-step Stats with the reference; a step whose
// answer is off is a failed op. exactIters also demands the same CG
// iteration count on every step (the p=1 case: same arithmetic, same
// order).
func countWrong(got, ref []hydro.Stats, exactIters bool) int {
	wrong := 0
	for i, g := range got {
		r := ref[i]
		ok := g.Step == r.Step &&
			relDiff(g.Min, r.Min) <= statsTol && relDiff(g.Max, r.Max) <= statsTol &&
			relDiff(g.Mean, r.Mean) <= statsTol && relDiff(g.Norm2, r.Norm2) <= statsTol
		if exactIters && g.SolveIters != r.SolveIters {
			ok = false
		}
		if !ok {
			wrong++
		}
	}
	return wrong
}

// twinBuilder makes twin steppers; rank 0's twin records into rec (nil for
// none).
func twinBuilder(p fig1Params, rec *recorder) func(*mpi.Comm, *mesh.Mesh) (stepper, error) {
	return func(comm *mpi.Comm, m *mesh.Mesh) (stepper, error) {
		r := rec
		if comm.Rank() != 0 {
			r = nil
		}
		return newTwin(comm, m, p, r)
	}
}

// fig1Workload is fig1.p1, fig1.p2 and fig1.p2.shm: they differ in the
// cohort and the grid only.
type fig1Workload struct {
	ranks  int
	shm    bool
	params fig1Params
}

func (w fig1Workload) runner() cohortRunner {
	if w.shm {
		return shmRanks(w.ranks)
	}
	return goroutineRanks(w.ranks)
}

func (w fig1Workload) run(c runConfig) (summary, map[string]metric, error) {
	p := w.params.seeded(c.seed)
	// The serial twin's per-step answers: what every episode is held to.
	refRun, err := fig1Episode(goroutineRanks(1), p, twinBuilder(p, nil))
	if err != nil {
		return summary{}, nil, err
	}
	ref := refRun.stats
	checked := func(run cohortRunner, exactIters bool, build func(*mpi.Comm, *mesh.Mesh) (stepper, error)) func() (episode, error) {
		return func() (episode, error) {
			r, err := fig1Episode(run, p, build)
			r.ep.failed = countWrong(r.stats, ref, exactIters)
			return r.ep, err
		}
	}
	wired := func(comm *mpi.Comm, m *mesh.Mesh) (stepper, error) { return buildPipeline(comm, m, p) }
	ports := checked(w.runner(), w.ranks == 1, wired)
	if !c.trace {
		eps, err := runEpisodes(c.budget, c.minEpisodes, ports)
		return summarize(eps), nil, err
	}

	// Traced: several kinds of episode take turns until the budget is
	// spent. Ports-wired with the library's instruments off and on gives
	// the tracing overhead; the twin without spans is the C1 guard's
	// denominator; the twin with spans is the layer budget; with more than
	// one rank, the same problem ports-wired on one rank gives the scaling
	// efficiency.
	var (
		off, on, bare, single []episode
		rec                   = newRecorder()
		last                  *twin
		spanSteps             int
		before                = counters()
	)
	_, err = runEpisodes(c.budget, c.minEpisodes, func() (episode, error) {
		var round episode
		type kind struct {
			eps     *[]episode
			tracing bool
			one     func() (episode, error)
		}
		kinds := []kind{
			{&off, false, ports},
			{&bare, false, checked(w.runner(), w.ranks == 1, twinBuilder(p, nil))},
			{&on, true, ports},
		}
		if w.ranks > 1 {
			kinds = append(kinds, kind{&single, false, checked(goroutineRanks(1), true, wired)})
		}
		for _, k := range kinds {
			setTracing(k.tracing)
			ep, err := k.one()
			setTracing(false)
			if err != nil {
				return round, err
			}
			*k.eps = append(*k.eps, ep)
			round.wall += ep.wall
		}
		rec.mute = p.warm // spans of measured steps only
		r, err := fig1Episode(w.runner(), p, twinBuilder(p, rec))
		if err != nil {
			return round, err
		}
		last = r.root.(*twin)
		spanSteps += p.steps
		round.wall += r.ep.wall
		return round, nil
	})
	if err != nil {
		return summary{}, nil, err
	}
	sOff, sOn, sBare := summarize(off), summarize(on), summarize(bare)
	out := sOff.common(sOn)
	out["cca.port_overhead_ratio"] = metric{sOff.p50us / sBare.p50us, "ratio"}
	out["cca.getport_ns"] = metric{getPortNs(), "ns"}
	if w.ranks > 1 {
		sOne := summarize(single)
		out["scaling_eff"] = metric{sOff.opsPerS / (float64(w.ranks) * sOne.opsPerS), "ratio"}
		sOff.attempted += sOne.attempted
		sOff.failed += sOne.failed
	}
	out["assembly.mesh_decompose_ms"] = metric{sOff.buildMs, "ms"}

	self, _ := selfTimes(rec.spans)
	for name, span := range map[string]string{
		"hydro.self_us_per_step":    "hydro.step",
		"linalg.solve_us_per_step":  "linalg.solve",
		"linalg.spmv_us_per_step":   "linalg.spmv",
		"linalg.dot_us_per_step":    "linalg.dot",
		"mesh.halo_us_per_step":     "mesh.halo",
		"mpi.allreduce_us_per_step": "mpi.allreduce",
	} {
		out[name] = metric{float64(self[span]) / 1e3 / float64(spanSteps), "us"}
	}

	// Exact counts, the same in every episode: read off the last twin.
	all := float64(p.warm + p.steps)
	iters := 0
	for _, st := range ref {
		iters += st.SolveIters
	}
	msgs, bytes := haloTraffic(last.dec)
	out["linalg.iters_per_step"] = metric{float64(iters) / float64(len(ref)), "count"}
	out["linalg.spmv_flops_per_step"] = metric{2 * float64(last.a.NNZ()) * float64(last.applies) / all, "count"}
	// Computed, not measured: values and column indices once, x and y once.
	out["linalg.spmv_bytes_per_step"] = metric{float64(12*last.a.NNZ()+16*last.a.NRows) * float64(last.applies) / all, "B"}
	out["mpi.allreduce_calls_per_step"] = metric{float64(last.allreduces) / all, "count"}
	out["mesh.halo_msgs_per_step"] = metric{float64(msgs*last.halos) / all, "count"}
	out["mesh.halo_bytes_per_step"] = metric{float64(bytes*last.halos) / all, "B"}

	if w.shm {
		// The library's counters ran during the instrumented episodes only.
		steps := float64(len(on) * (p.warm + p.steps))
		out["mpi.proc.send_frames_per_op"] = metric{before.delta("mpi.proc.send_frames") / steps, "count"}
		out["mpi.proc.send_bytes_per_op"] = metric{before.delta("mpi.proc.send_bytes") / steps, "B"}
		out["transport.shm.ring_stalls_per_op"] = metric{before.delta("transport.shm.ring_stalls") / steps, "count"}
		out["transport.shm_rtt_8b_us"] = metric{exchangeRTT("shm", 8, 8), "us"}
	}

	sOff.attempted += sOn.attempted + sBare.attempted
	sOff.failed += sOn.failed + sBare.failed
	return sOff, out, writeTrace(c, rec.spans, out)
}

// haloTraffic counts the messages and payload bytes one Exchange sends
// from this rank, from the decomposition alone: one message per neighbour,
// eight bytes per ghost value (a symmetric partition sends what it
// receives).
func haloTraffic(d *mesh.Decomposition) (msgs, bytes int) {
	return len(d.Neighbors()), 8 * len(d.Ghosts)
}

// getPortNs times Services.GetPort+ReleasePort on a connected uses port.
func getPortNs() float64 {
	fw := framework.New(framework.Options{})
	user := &portUser{}
	must(fw.Install("provider", &viz.StatsMonitor{}))
	must(fw.Install("user", user))
	_, err := fw.Connect("user", "monitor", "provider", "monitor")
	must(err)
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, err := user.svc.GetPort("monitor")
		must(err)
		user.svc.ReleasePort("monitor")
	}
	return float64(time.Since(t0)) / n
}

type portUser struct{ svc cca.Services }

func (u *portUser) SetServices(svc cca.Services) error {
	u.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "monitor", Type: hydro.TypeMonitor})
}
