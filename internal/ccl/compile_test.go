package ccl

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/cca"
	ccoll "repro/internal/cca/collective"
	dcoll "repro/internal/dist/collective"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/repo"
	"repro/internal/transport"
)

// TestCompileSolverswapMatchesProgrammatic is the declarative/programmatic
// equivalence check for the solverswap example: compiling the checked-in
// .ccl must produce the exact solve — same iterations, same residual, same
// solution vector — as the Go-programmed assembly from examples/solverswap.
func TestCompileSolverswapMatchesProgrammatic(t *testing.T) {
	const path = "../../examples/solverswap/solverswap.ccl"
	doc, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := Compile(doc, Options{LockPath: DefaultLockPath(path)})
	if err != nil {
		t.Fatal(err)
	}
	defer asm.Close()

	// The lockfile pins both typed components against the local store.
	if len(asm.Lock.Components) != 2 {
		t.Fatalf("lock %+v", asm.Lock.Components)
	}
	for _, le := range asm.Lock.Components {
		if le.Version != "1.0.0" || le.Source != "local" {
			t.Fatalf("lock entry %+v", le)
		}
	}

	// The same system the example solves: b = A·1 for the 48² operator the
	// document's advdiff provider builds.
	a := linalg.AdvDiff2D(48, 48, 8, 4)
	b := make([]float64, a.NRows)
	if err := a.Apply(linalg.Ones(a.NCols), b); err != nil {
		t.Fatal(err)
	}

	solve := func(app *repo.Builder) (int32, float64, []float64) {
		comp, ok := app.Component("solver")
		if !ok {
			t.Fatal("no solver instance")
		}
		s := comp.(esi.EsiSolver)
		x := make([]float64, a.NRows)
		iters, err := s.Solve(b, &x)
		if err != nil {
			t.Fatal(err)
		}
		return iters, s.FinalResidual(), x
	}

	// The programmatic twin, wired exactly as examples/solverswap.runOnce
	// wires the bicgstab+ilu0 pair the document declares.
	twin := newESIApp(t)
	if err := twin.Fw.Install("op", esi.NewOperatorComponent(a)); err != nil {
		t.Fatal(err)
	}
	if err := twin.Create("solver", "esi.SolverComponent.bicgstab"); err != nil {
		t.Fatal(err)
	}
	if err := twin.Create("prec", "esi.PreconditionerComponent.ilu0"); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][4]string{
		{"solver", "A", "op", "A"},
		{"prec", "A", "op", "A"},
		{"solver", "M", "prec", "M"},
	} {
		if _, err := twin.Fw.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatal(err)
		}
	}
	tc, _ := twin.Component("solver")
	tc.(esi.EsiSolver).SetTolerance(1e-8)
	tc.(interface{ SetMaxIterations(int32) }).SetMaxIterations(2000)

	cclIters, cclRes, cclX := solve(asm.App)
	twinIters, twinRes, twinX := solve(twin)
	if cclIters != twinIters || cclRes != twinRes {
		t.Fatalf("ccl solve (%d iters, %g) != programmatic (%d iters, %g)",
			cclIters, cclRes, twinIters, twinRes)
	}
	for i := range cclX {
		if cclX[i] != twinX[i] {
			t.Fatalf("x[%d]: ccl %v != programmatic %v", i, cclX[i], twinX[i])
		}
	}
	if cclRes > 1e-8 {
		t.Fatalf("relative residual %g did not meet the declared tolerance", cclRes)
	}
}

// frozenField is a publisher-side rank chunk holding one fixed epoch.
type frozenField struct {
	side ccoll.Side
	data []float64
}

func (f *frozenField) Side() ccoll.Side     { return f.side }
func (f *frozenField) LocalData() []float64 { return f.data }

// startSim publishes a frozen M-rank block-mapped field whose element at
// global index g holds step + g/1e6, and returns its dial address.
func startSim(t *testing.T, gl, ranks int, stepVal float64) string {
	t.Helper()
	dm := array.NewBlockMap(gl, ranks)
	ports := make([]ccoll.DistArrayPort, ranks)
	for r := 0; r < ranks; r++ {
		f := &frozenField{side: ccoll.Side{Map: dm}, data: make([]float64, dm.LocalLen(r))}
		ports[r] = f
	}
	for _, run := range dm.Runs() {
		f := ports[run.Rank].(*frozenField)
		for k := 0; k < run.Global.Len(); k++ {
			f.data[run.Local+k] = stepVal + float64(run.Global.Lo+k)/1e6
		}
	}
	oa := orb.NewObjectAdapter()
	if _, err := dcoll.Publish(oa, "wave", ports); err != nil {
		t.Fatal(err)
	}
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// startRepoService binds a seeded repository on the ORB and returns its
// dial address.
func startRepoService(t *testing.T) string {
	t.Helper()
	seed := newESIApp(t)
	if err := DepositConsumer(seed.Repo); err != nil {
		t.Fatal(err)
	}
	oa := orb.NewObjectAdapter()
	seed.Repo.Bind(oa)
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestCompileDistvizMatchesProgrammatic compiles the checked-in distviz
// assembly — component resolution over a live networked repository, the
// remote collective port attached with an M→N redistribution — and holds
// the pulled field equal, element for element, to a Go-programmed
// attachment to the same simulation.
func TestCompileDistvizMatchesProgrammatic(t *testing.T) {
	const (
		path  = "../../examples/distviz/distviz.ccl"
		gl    = 40000
		nViz  = 3
		step  = 7.0
		block = 64
	)
	simAddr := startSim(t, gl, 2, step)
	repoAddr := startRepoService(t)

	doc, err := Load(path, map[string]string{"SIM_ADDR": simAddr, "REPO_ADDR": repoAddr})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := Compile(doc, Options{LockPath: DefaultLockPath(path)})
	if err != nil {
		t.Fatal(err)
	}
	defer asm.Close()

	// The resolution came over the wire and the lockfile pins it.
	if len(asm.Lock.Components) != 1 {
		t.Fatalf("lock %+v", asm.Lock.Components)
	}
	if le := asm.Lock.Components[0]; le.Instance != "viz" || le.Type != ConsumerType ||
		le.Version != "0.1.0" || le.Source != "repository" {
		t.Fatalf("lock entry %+v", le)
	}

	pullAll := func(app *repo.Builder) [][]float64 {
		port, err := app.Port("viz", "in")
		if err != nil {
			t.Fatal(err)
		}
		pull := port.(ccoll.PullPort)
		if pull.GlobalLen() != gl || pull.Ranks() != nViz {
			t.Fatalf("pull geometry %d/%d", pull.GlobalLen(), pull.Ranks())
		}
		outs := make([][]float64, nViz)
		for r := 0; r < nViz; r++ {
			outs[r] = make([]float64, pull.LocalLen(r))
			if err := pull.Pull(r, outs[r]); err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return outs
	}

	got := pullAll(asm.App)

	// Placement check against the analytic field.
	cdm := array.NewCyclicMap(gl, nViz, block)
	for _, run := range cdm.Runs() {
		for k := 0; k < run.Global.Len(); k++ {
			g := run.Global.Lo + k
			want := step + float64(g)/1e6
			if v := got[run.Rank][run.Local+k]; math.Abs(v-want) > 1e-12 {
				t.Fatalf("global %d: got %v want %v", g, v, want)
			}
		}
	}

	// The programmatic twin: same attachment built through Go calls.
	twin := newESIApp(t)
	if err := DepositConsumer(twin.Repo); err != nil {
		t.Fatal(err)
	}
	imp, err := dcoll.InstallRemoteDistArray(twin.Fw, "wave", "data", transport.TCP{}, simAddr, "wave",
		array.NewCyclicMap(gl, nViz, block), dcoll.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	if err := twin.Create("viz", ConsumerType); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Fw.Connect("viz", "in", "wave", "data"); err != nil {
		t.Fatal(err)
	}
	want := pullAll(twin)

	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d length %d != %d", r, len(got[r]), len(want[r]))
		}
		for i := range got[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d elem %d: ccl %v != programmatic %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestCompilePipelineExports compiles the pipeline golden (typed solver +
// provider operator + export), checks the export came up on one bound
// address, and that a `remote` in a second assembly can dial the address
// the export reports.
func TestCompilePipelineExports(t *testing.T) {
	doc, err := Load("testdata/pipeline.ccl", nil)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := Compile(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer asm.Close()
	if len(asm.Exports) != 1 {
		t.Fatalf("exports %+v", asm.Exports)
	}
	e := asm.Exports[0]
	if e.Instance != "op" || e.Port != "A" {
		t.Fatalf("export %+v", e)
	}
	if _, port, err := net.SplitHostPort(e.Addr); err != nil || port == "0" {
		t.Fatalf("export reports %q, want the one bound host:port (%v)", e.Addr, err)
	}
	if e.Key == "" {
		t.Fatal("export key empty")
	}
	// Lock handling was skipped: no path given.
	if asm.LockPath != "" || asm.LockCreated {
		t.Fatalf("unexpected lock handling %q %v", asm.LockPath, asm.LockCreated)
	}

	// A `remote` dials the address the export reports, and registers its
	// proxy's provides port under the name its `port` key declares.
	for _, tc := range []struct {
		name, portKey, connectTo string
		wantErr                  error
	}{
		{"default port", "", "far.A", nil},
		{"named port", "  port B\n", "far.B", nil},
		{"named port hides the default", "  port B\n", "far.A", cca.ErrPortUnknown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, err := Parse(fmt.Sprintf(`ccl 1
component caller {
  provider consumer
  config {
    port A
    type esi.MatrixData
  }
}
remote far {
  address %q
  key %s
%s}
connect caller.A -> %s
`, e.Addr, e.Key, tc.portKey, tc.connectTo), ParseOptions{Path: "client.ccl"})
			if err != nil {
				t.Fatal(err)
			}
			casm, err := Compile(client, Options{})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("connect to %s: err = %v, want %v", tc.connectTo, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("remote at the export's address %q: %v", e.Addr, err)
			}
			defer casm.Close()
			port, err := casm.App.Port("caller", "A")
			if err != nil {
				t.Fatal(err)
			}
			if rows := port.(esi.EsiOperator).Rows(); rows != 32*32 {
				t.Fatalf("remote operator reports %d rows, want %d", rows, 32*32)
			}
		})
	}
}

// TestApplyFragments applies a document one declaration at a time to a
// live assembly: later fragments may reference instances earlier ones
// declared, a failing fragment releases only what it opened, and Close
// releases the rest.
func TestApplyFragments(t *testing.T) {
	frag := func(src string) *Document {
		doc, err := Parse("ccl 1\n"+src, ParseOptions{Path: "frag.ccl"})
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	asm, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer asm.Close()
	for _, src := range []string{
		"component op {\n  provider laplace1d\n  config {\n    n 8\n  }\n}\n",
		"component solver {\n  type esi.SolverComponent.cg\n}\n",
		"export op.A {\n}\n",
		"connect solver.A -> op.A\n",
	} {
		if err := asm.Apply(frag(src), ""); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	if len(asm.Exports) != 1 || len(asm.Resolutions) != 1 || len(asm.App.Fw.Connections()) != 1 {
		t.Fatalf("exports %+v resolutions %+v connections %v", asm.Exports, asm.Resolutions, asm.App.Fw.Connections())
	}
	// A fragment naming an instance that is neither declared nor live is
	// still a validation error, and a fragment failing after its export
	// came up takes that export down but leaves the first one serving.
	if err := asm.Apply(frag("connect solver.M -> ghost.M\n"), ""); !errors.Is(err, ErrUndefined) {
		t.Fatalf("got %v", err)
	}
	if err := asm.Apply(frag("export op.A {\n}\nconnect solver.M -> op.A\n"), ""); !errors.Is(err, cca.ErrTypeMismatch) {
		t.Fatalf("got %v", err)
	}
	if len(asm.Exports) != 1 {
		t.Fatalf("failed fragment left its export recorded: %+v", asm.Exports)
	}
	c, err := orb.DialAddr(asm.Exports[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Invoke(asm.Exports[0].Key, "rows"); err != nil || res[0].(int32) != 8 {
		t.Fatalf("first export no longer serving: %v %v", res, err)
	}
}

// TestCompileErrors covers the compiler's own failure classes (the parser
// and validator classes have their own table).
func TestCompileErrors(t *testing.T) {
	mustDoc := func(src string) *Document {
		doc, err := Parse(src, ParseOptions{Path: "err.ccl"})
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	t.Run("unknown provider", func(t *testing.T) {
		doc := mustDoc("ccl 1\ncomponent op {\n  provider warp\n}\n")
		if _, err := Compile(doc, Options{}); !errors.Is(err, ErrUnknownProvider) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("provider config", func(t *testing.T) {
		doc := mustDoc("ccl 1\ncomponent op {\n  provider poisson\n  config {\n    n zero\n  }\n}\n")
		if _, err := Compile(doc, Options{}); !errors.Is(err, ErrBadValue) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("no factory", func(t *testing.T) {
		a, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		// A deposited but factory-less entry is what a fetched network
		// entry looks like: metadata without code.
		if err := a.App.Repo.Deposit(repo.Entry{Name: "x.Ghost", Version: "1.0"}); err != nil {
			t.Fatal(err)
		}
		doc := mustDoc("ccl 1\ncomponent g {\n  type x.Ghost\n  version ^1.0\n}\n")
		err = a.Apply(doc, "")
		if !errors.Is(err, repo.ErrNoFactory) {
			t.Fatalf("got %v", err)
		}
		if !strings.Contains(err.Error(), "factories never serialize") {
			t.Fatalf("error does not explain the remedy: %v", err)
		}
	})

	t.Run("unknown config key on typed component", func(t *testing.T) {
		doc := mustDoc("ccl 1\ncomponent s {\n  type esi.SolverComponent.cg\n  config {\n    colour red\n  }\n}\n")
		if _, err := Compile(doc, Options{}); !errors.Is(err, ErrUnknownKey) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("setter not accepted", func(t *testing.T) {
		doc := mustDoc("ccl 1\ncomponent p {\n  type esi.PreconditionerComponent.jacobi\n  config {\n    tolerance 1e-8\n  }\n}\n")
		if _, err := Compile(doc, Options{}); !errors.Is(err, ErrBadValue) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("constraint mismatch", func(t *testing.T) {
		doc := mustDoc("ccl 1\ncomponent s {\n  type esi.SolverComponent.cg\n  version ^9.0\n}\n")
		if _, err := Compile(doc, Options{}); !errors.Is(err, repo.ErrNoMatch) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("bad remote scheme", func(t *testing.T) {
		doc := mustDoc("ccl 1\nremote r {\n  address \"carrier-pigeon://x\"\n  key k\n}\n")
		if _, err := Compile(doc, Options{}); !errors.Is(err, ErrBadValue) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("lock mismatch", func(t *testing.T) {
		dir := t.TempDir()
		lockPath := dir + "/a.ccl.lock"
		doc := mustDoc("ccl 1\ncomponent s {\n  type esi.SolverComponent.cg\n  version ^1.0\n}\n")
		asm, err := Compile(doc, Options{LockPath: lockPath})
		if err != nil {
			t.Fatal(err)
		}
		asm.Close()
		if !asm.LockCreated {
			t.Fatal("first compile should create the lockfile")
		}
		// The "same" document now resolves a different solver: the pinned
		// world has shifted, so the compile must refuse.
		doc2 := mustDoc("ccl 1\ncomponent s {\n  type esi.SolverComponent.gmres\n  version ^1.0\n}\n")
		if _, err := Compile(doc2, Options{LockPath: lockPath}); !errors.Is(err, ErrLockMismatch) {
			t.Fatalf("got %v", err)
		}
	})
}
