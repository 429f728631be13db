// Package hydro is the reproduction's CHAD-like mini-app: the parallel
// numerical components of the paper's Figure 1 and §2.1. CHAD itself is a
// proprietary Fortran 90 code; what the paper uses it for is its *shape* —
// "hybrid unstructured meshes", "encapsulation of nonlocal communication in
// gather/scatter routines using MPI", and semi-implicit schemes whose "most
// computationally intensive phase ... is the solution of discretized linear
// systems" (§2.2). This package reproduces that shape:
//
//   - MeshComponent distributes an unstructured mesh across the cohort
//     (Figure 1's component A, "a mesh [that] uses MPI to communicate among
//     the four processes over which it is distributed");
//   - FlowComponent advances a scalar transport equation with an explicit
//     upwind advection step and a semi-implicit (backward-Euler) diffusion
//     solve by parallel preconditioned CG over halo-exchanged operators —
//     the tightly coupled solver pipeline of Figure 1's upper half. The
//     step itself is Stepper, which the component runs behind its ports;
//     E5 drives one directly to price them;
//   - the flow field is published through a collective DistArray port so
//     differently distributed tools (visualization, statistics) can attach
//     dynamically — Figure 1's lower half and the §2.2 scenario of
//     "dynamically attaching a visualization tool to an ongoing simulation".
package hydro

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"repro/internal/cca"
	"repro/internal/cca/collective"
	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/mpi"
)

// Port type names.
const (
	TypeMesh    = "chad.Mesh"
	TypeFlow    = "chad.Flow"
	TypeMonitor = "cca.ports.Monitor"
)

// ErrHydro reports simulation configuration errors.
var ErrHydro = errors.New("hydro: invalid configuration")

// MeshPort is the provides-port interface of MeshComponent: each cohort
// rank sees its own decomposition of the global mesh (Decomp().M).
type MeshPort interface {
	Decomp() *mesh.Decomposition
}

// Stats summarizes one timestep, globally reduced across the cohort.
type Stats struct {
	Step       int
	Time       float64
	Min, Max   float64
	Mean       float64
	Norm2      float64
	SolveIters int
}

func (s Stats) String() string {
	return fmt.Sprintf("step=%d t=%.4f min=%.4g max=%.4g mean=%.4g ‖u‖=%.4g iters=%d",
		s.Step, s.Time, s.Min, s.Max, s.Mean, s.Norm2, s.SolveIters)
}

// FlowPort is the provides-port interface of FlowComponent: the stepping
// API the time integrator (or an interactive builder) drives.
type FlowPort interface {
	// Step advances one timestep of length dt and returns global stats.
	Step(dt float64) (Stats, error)
}

// MonitorPort is the uses-port interface fanned out to attached monitors
// after every step ("one call may correspond to zero or more invocations").
type MonitorPort interface {
	Observe(step int, stats Stats)
}

// --- MeshComponent ---

// MeshComponent provides the decomposed mesh to the rest of the cohort.
type MeshComponent struct {
	decomp *mesh.Decomposition
}

var (
	_ cca.Component = (*MeshComponent)(nil)
	_ MeshPort      = (*MeshComponent)(nil)
)

// NewMeshComponent partitions m over p ranks with the named partitioner
// and builds rank's view. Each cohort member constructs its own instance
// (same mesh, same partition — SPMD determinism keeps them consistent).
func NewMeshComponent(m *mesh.Mesh, partitioner string, p, rank int) (*MeshComponent, error) {
	pt, err := mesh.NewPartitioner(partitioner)
	if err != nil {
		return nil, err
	}
	part := pt.PartitionNodes(m, p)
	d, err := mesh.Decompose(m, part, p, rank)
	if err != nil {
		return nil, err
	}
	return &MeshComponent{decomp: d}, nil
}

// SetServices implements cca.Component.
func (mc *MeshComponent) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(mc, cca.PortInfo{Name: "mesh", Type: TypeMesh})
}

// Decomp implements MeshPort.
func (mc *MeshComponent) Decomp() *mesh.Decomposition { return mc.decomp }

// --- FlowComponent ---

// Config sets the physics of a FlowComponent.
type Config struct {
	// Nu is the diffusion coefficient (> 0).
	Nu float64
	// Vel is the constant advection velocity.
	Vel [2]float64
	// Tol is the linear-solve tolerance (default 1e-8).
	Tol float64
	// Prec names the parallel preconditioner: "" (none) or "jacobi" (the
	// only communication-free choice, hence the parallel default).
	Prec string
	// InitialCondition maps a node coordinate to the initial field value;
	// nil defaults to a Gaussian bump at the domain center.
	InitialCondition func(x, y float64) float64
	// Source is a steady volumetric source term added explicitly each
	// step (nil for none). With a source the field approaches a steady
	// state instead of decaying to zero.
	Source func(x, y float64) float64
}

// checkConfig validates cfg and fills in its defaults.
func checkConfig(cfg Config) (Config, error) {
	if cfg.Nu <= 0 {
		return Config{}, fmt.Errorf("%w: Nu=%v", ErrHydro, cfg.Nu)
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-8
	}
	if cfg.Prec != "" && cfg.Prec != "jacobi" {
		return Config{}, fmt.Errorf("%w: parallel preconditioner %q (want \"\" or \"jacobi\")", ErrHydro, cfg.Prec)
	}
	return cfg, nil
}

// FlowComponent is one cohort member of the parallel flow solver: a
// Stepper behind its ports.
type FlowComponent struct {
	cfg  Config
	comm *mpi.Comm
	svc  cca.Services
	st   *Stepper // built from the mesh port on first use
}

var (
	_ cca.Component            = (*FlowComponent)(nil)
	_ FlowPort                 = (*FlowComponent)(nil)
	_ collective.DistArrayPort = (*FlowComponent)(nil)
)

// NewFlowComponent creates one cohort member over comm.
func NewFlowComponent(comm *mpi.Comm, cfg Config) (*FlowComponent, error) {
	cfg, err := checkConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &FlowComponent{cfg: cfg, comm: comm}, nil
}

// SetServices implements cca.Component: uses "mesh", provides "flow" and
// the collective "field" port, and fans out to "monitor".
func (fc *FlowComponent) SetServices(svc cca.Services) error {
	fc.svc = svc
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "mesh", Type: TypeMesh}); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "monitor", Type: TypeMonitor}); err != nil {
		return err
	}
	if err := svc.AddProvidesPort(fc, cca.PortInfo{Name: "flow", Type: TypeFlow}); err != nil {
		return err
	}
	return svc.AddProvidesPort(fc, collective.Info("field", fc.Side()))
}

// RequiredFlavor declares the collective compliance requirement.
func (fc *FlowComponent) RequiredFlavor() cca.Flavor {
	return cca.FlavorInProcess | cca.FlavorCollective
}

// init fetches the mesh port and builds the stepper; idempotent.
func (fc *FlowComponent) init() error {
	if fc.st != nil {
		return nil
	}
	port, err := fc.svc.GetPort("mesh")
	if err != nil {
		return fmt.Errorf("hydro: flow needs a mesh: %w", err)
	}
	defer fc.svc.ReleasePort("mesh")
	mp, ok := port.(MeshPort)
	if !ok {
		return fmt.Errorf("%w: mesh port is %T", ErrHydro, port)
	}
	fc.st, err = NewStepper(fc.comm, mp.Decomp(), fc.cfg)
	return err
}

// Step implements FlowPort: one Stepper step, then the monitor fan-out.
func (fc *FlowComponent) Step(dt float64) (Stats, error) {
	if err := fc.init(); err != nil {
		return Stats{}, err
	}
	stats, err := fc.st.Step(dt)
	if err != nil {
		return Stats{}, err
	}

	// Monitor fan-out: zero or more attached monitors, invoked on every
	// cohort rank with identical global stats. Each returned port is one
	// acquisition, released before the step returns so a monitor can be
	// quiesced or swapped between steps. A step taken while a monitor is
	// quiesced observes none: "zero or more invocations" is the listener
	// contract, and the step itself must not wait on or fail for an
	// observer (unlike a solver's preconditioner, whose absence would
	// change the answer).
	monitors, err := fc.svc.GetPorts("monitor")
	if err == nil {
		for _, mp := range monitors {
			if mon, ok := mp.(MonitorPort); ok {
				mon.Observe(stats.Step, stats)
			}
			_ = fc.svc.ReleasePort("monitor")
		}
	}
	return stats, nil
}

// Stepper is one cohort rank's Figure 1 timestep with no component
// machinery: explicit upwind advection, the semi-implicit diffusion solve
// by preconditioned CG over halo-exchanged operators, and the globally
// reduced statistics. FlowComponent runs one behind its ports; E5 runs
// one directly beside it to price the ports (claim C1).
type Stepper struct {
	cfg  Config
	comm *mpi.Comm

	dec      *mesh.Decomposition
	boundary map[int]bool
	upwind   *Upwind
	u        []float64 // owned+ghost field
	source   []float64 // per-owned-node steady source (nil when unused)
	time     float64
	step     int

	// Per-step vectors, kept so a step allocates none: the advected
	// field, the solve's iterate, and the CG recurrence's own vectors.
	ustar, x []float64
	cg       linalg.CGState

	// cached semi-implicit operator per dt value
	cachedDT float64
	op       *mesh.DistOperator
	prec     linalg.Preconditioner
}

// NewStepper builds comm's rank of the stepper over its decomposition dec
// of the mesh dec.M: the field set from cfg.InitialCondition on interior
// nodes (boundary nodes held at 0) with its ghosts exchanged, and the
// steady source. It communicates, so every rank of comm calls it.
func NewStepper(comm *mpi.Comm, dec *mesh.Decomposition, cfg Config) (*Stepper, error) {
	cfg, err := checkConfig(cfg)
	if err != nil {
		return nil, err
	}
	m := dec.M
	s := &Stepper{cfg: cfg, comm: comm, dec: dec, boundary: map[int]bool{}}
	for _, n := range m.BoundaryNodes() {
		s.boundary[n] = true
	}
	s.upwind = NewUpwind(dec, s.boundary, cfg.Vel)
	s.ustar = make([]float64, dec.NumOwned())
	s.x = make([]float64, dec.NumOwned())
	ic := cfg.InitialCondition
	if ic == nil {
		ic = func(x, y float64) float64 {
			dx, dy := x-0.5, y-0.5
			return math.Exp(-50 * (dx*dx + dy*dy))
		}
	}
	s.u = make([]float64, dec.NumLocal())
	if cfg.Source != nil {
		s.source = make([]float64, dec.NumOwned())
	}
	for li, g := range dec.Owned {
		if s.boundary[g] {
			continue
		}
		c := m.Coords[g]
		s.u[li] = ic(c[0], c[1])
		if s.source != nil {
			s.source[li] = cfg.Source(c[0], c[1])
		}
	}
	if err := dec.Exchange(comm, s.u); err != nil {
		return nil, err
	}
	return s, nil
}

// semiImplicitEntries assembles I + dt·ν·L with exact identity rows on
// boundary nodes and interior couplings restricted to interior neighbours
// (Dirichlet elimination, keeping the operator SPD).
func (s *Stepper) semiImplicitEntries(dt float64) []mesh.Entry {
	m := s.dec.M
	var out []mesh.Entry
	for i := 0; i < m.NumNodes(); i++ {
		if s.boundary[i] {
			out = append(out, mesh.Entry{Row: i, Col: i, Val: 1})
			continue
		}
		deg := 0
		for _, j := range m.NodeNeighbors(i) {
			deg++
			if !s.boundary[j] {
				out = append(out, mesh.Entry{Row: i, Col: j, Val: -dt * s.cfg.Nu})
			}
		}
		out = append(out, mesh.Entry{Row: i, Col: i, Val: 1 + dt*s.cfg.Nu*float64(deg)})
	}
	return out
}

// ensureOperator (re)builds the cached distributed operator for dt.
func (s *Stepper) ensureOperator(dt float64) error {
	if s.op != nil && s.cachedDT == dt {
		return nil
	}
	op, err := mesh.NewDistOperator(s.dec, s.comm, s.semiImplicitEntries(dt))
	if err != nil {
		return err
	}
	s.op = op
	s.cachedDT = dt
	s.prec = linalg.IdentityPrec{}
	if s.cfg.Prec == "jacobi" {
		diag := s.op.Local.Diagonal()
		p, err := linalg.NewJacobiFromDiag(diag[:s.dec.NumOwned()])
		if err != nil {
			return err
		}
		s.prec = p
	}
	return nil
}

// Step advances one timestep of length dt — explicit upwind advection,
// then the implicit diffusion solve — and returns the globally reduced
// statistics. Every rank of the cohort calls it. A step that takes iters
// CG iterations makes 1 + 2·iters + 2 allreduces and 2 + iters halo
// exchanges: one per operator apply, and the refresh that ends the step.
func (s *Stepper) Step(dt float64) (Stats, error) {
	if dt <= 0 {
		return Stats{}, fmt.Errorf("%w: dt=%v", ErrHydro, dt)
	}
	if err := s.ensureOperator(dt); err != nil {
		return Stats{}, err
	}
	nOwned := s.dec.NumOwned()

	// Explicit advection: edge-upwind update. The ghosts are current:
	// NewStepper and the end of every step exchange them, and nothing
	// writes the field in between.
	if err := s.upwind.Sweep(dt, s.u, s.source, s.ustar); err != nil {
		return Stats{}, err
	}

	// Implicit diffusion: (I + dt ν L) u' = u*.
	copy(s.x, s.u[:nOwned]) // warm start from previous field
	dot, dots, dotErr := mesh.GlobalDot(s.comm)
	res, err := s.cg.Solve(s.op, s.ustar, s.x, linalg.Options{
		Tol:  s.cfg.Tol,
		Dot:  dot,
		Dots: dots,
		Prec: s.prec,
	})
	if err != nil {
		return Stats{}, fmt.Errorf("hydro: diffusion solve: %w", cmp.Or(dotErr(), err))
	}
	copy(s.u[:nOwned], s.x)
	if err := s.dec.Exchange(s.comm, s.u); err != nil {
		return Stats{}, err
	}

	s.step++
	s.time += dt
	return s.reduceStats(res.Iterations)
}

// OwnedField returns this rank's owned chunk of the field (live storage —
// read-only for callers).
func (s *Stepper) OwnedField() []float64 { return s.u[:s.dec.NumOwned()] }

// Upwind is the explicit edge-upwind advection step over one rank's owned
// nodes, with its stencil built once: per owned node the boundary flag,
// the local indices and coefficients of its inflow neighbours, and its
// CFL rate. Sweep then does no map lookup and no geometry.
type Upwind struct {
	owned  []int  // global id of each owned node, for the CFL error
	pinned []bool // boundary node: held at its Dirichlet value
	// The inflow neighbours of owned node li are nbr[start[li]:start[li+1]]
	// (local indices), with upwind coefficients coef[start[li]:start[li+1]].
	start []int
	nbr   []int
	coef  []float64
	rate  []float64 // per owned node, the sum of its coefficients
}

// NewUpwind builds the stencil of dec's owned nodes for the constant
// velocity vel; boundary holds the global ids of the Dirichlet nodes.
// Neighbour j is inflow to node g when vel points from j to g, with
// coefficient c = −vel·(x_j − x_g)/|x_j − x_g|² > 0. Every neighbour of
// an owned node is owned or a ghost, so each has a local index.
func NewUpwind(dec *mesh.Decomposition, boundary map[int]bool, vel [2]float64) *Upwind {
	m, n := dec.M, dec.NumOwned()
	w := &Upwind{
		owned:  dec.Owned,
		pinned: make([]bool, n),
		start:  make([]int, 1, n+1),
		rate:   make([]float64, n),
	}
	for li, g := range dec.Owned {
		if boundary[g] {
			w.pinned[li] = true
			w.start = append(w.start, len(w.nbr))
			continue
		}
		rate := 0.0
		for _, j := range m.NodeNeighbors(g) {
			e := [2]float64{m.Coords[j][0] - m.Coords[g][0], m.Coords[j][1] - m.Coords[g][1]}
			h2 := e[0]*e[0] + e[1]*e[1]
			if h2 == 0 {
				continue
			}
			c := -(vel[0]*e[0] + vel[1]*e[1]) / h2
			if c <= 0 {
				continue
			}
			w.nbr = append(w.nbr, dec.LocalIndex(j))
			w.coef = append(w.coef, c)
			rate += c
		}
		w.rate[li] = rate
		w.start = append(w.start, len(w.nbr))
	}
	return w
}

// Sweep writes the advected owned field into ustar (length NumOwned) from
// u (owned values, then ghosts already refreshed): u_i + dt·Σ c·(u_j − u_i)
// over the inflow neighbours, plus dt·source_i when source is non-nil, on
// interior nodes, and u_i on boundary nodes. An interior node whose
// dt·rate exceeds 1 breaks the CFL bound; Sweep returns ErrHydro naming
// the first such node in owned order.
func (w *Upwind) Sweep(dt float64, u, source, ustar []float64) error {
	for li, pinned := range w.pinned {
		ui := u[li]
		if pinned {
			ustar[li] = ui
			continue
		}
		acc := 0.0
		lo, hi := w.start[li], w.start[li+1]
		coef := w.coef[lo:hi]
		for k, j := range w.nbr[lo:hi] {
			acc += coef[k] * (u[j] - ui)
		}
		if rate := w.rate[li]; dt*rate > 1 {
			return fmt.Errorf("%w: advection CFL violated at node %d (dt·rate=%.3f)", ErrHydro, w.owned[li], dt*rate)
		}
		ustar[li] = ui + dt*acc
		if source != nil {
			ustar[li] += dt * source[li]
		}
	}
	return nil
}

// reduceStats computes globally reduced field statistics in two
// reductions: Max over (−min, max), since min = −max(−·) exactly, and Sum
// over (sum, sum of squares).
func (s *Stepper) reduceStats(iters int) (Stats, error) {
	lmin, lmax, lsum, lsq := math.Inf(1), math.Inf(-1), 0.0, 0.0
	for _, v := range s.OwnedField() {
		if v < lmin {
			lmin = v
		}
		if v > lmax {
			lmax = v
		}
		lsum += v
		lsq += v * v
	}
	ext, err := s.comm.AllreduceFloat64([]float64{-lmin, lmax}, mpi.Max)
	if err != nil {
		return Stats{}, err
	}
	sums, err := s.comm.AllreduceFloat64([]float64{lsum, lsq}, mpi.Sum)
	if err != nil {
		return Stats{}, err
	}
	n := float64(s.dec.M.NumNodes())
	return Stats{
		Step: s.step, Time: s.time,
		Min: -ext[0], Max: ext[1], Mean: sums[0] / n, Norm2: math.Sqrt(sums[1]),
		SolveIters: iters,
	}, nil
}

// Side implements collective.DistArrayPort: the field is distributed per
// the mesh decomposition, expressed as an irregular data map over global
// node ids in each rank's owned order.
func (fc *FlowComponent) Side() collective.Side {
	if fc.st == nil {
		// Before init the side is unknown; publish an empty map so early
		// introspection fails loudly at connect time rather than silently.
		return collective.Side{}
	}
	side, err := SideOf(fc.st.dec)
	if err != nil {
		return collective.Side{}
	}
	return side
}

// LocalData implements collective.DistArrayPort: this rank's owned chunk
// of the field (live storage — read-only for callers), nil before the
// first step.
func (fc *FlowComponent) LocalData() []float64 {
	if fc.st == nil {
		return nil
	}
	return fc.st.OwnedField()
}
