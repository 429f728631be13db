// Command ccafe is the reproduction's Ccaffeine-like framework shell: an
// interactive (or scripted) builder driving the CCA reference framework
// through the configuration API — the "composition tool" of the paper's
// Figure 2.
//
// Usage:
//
//	ccafe              # interactive shell on stdin
//	ccafe -f script    # run a script file
//
// Distributed-connection flags (supervised remote ports):
//
//	--connect-timeout   initial dial budget for `remote` (default 5s)
//	--retry             per-call attempt budget for idempotent methods
//	                    across reconnects (default 4)
//	--breaker-threshold consecutive failed redials before the circuit
//	                    opens and calls are shed (default 5)
//
// Observability flags:
//
//	--metrics-addr      serve the metrics/trace snapshot as JSON over HTTP
//	                    at this address (e.g. 127.0.0.1:9090; off by default)
//
// Commands:
//
//	repository                    list deposited component types
//	describe                      describe deposited types and ports
//	sidl <qname>                  show a SIDL type from the merged table
//	create <instance> <type>      instantiate a repository type
//	matrix <instance> <kind> <n>  install an operator component wrapping a
//	                              built-in matrix (kind: poisson|advdiff|laplace1d)
//	connect <user> <uses> <provider> <provides>
//	autoconnect <user> <provider>
//	disconnect <user> <uses> <provider> <provides>
//	components                    list installed instances
//	connections                   list live connections
//	ports <instance>              list an instance's ports
//	solve <solver-instance> [tol] run the solver against a manufactured RHS
//	export <instance> <port> [addr]
//	                              serve a provides port over the ORB for
//	                              remote frameworks (addr default
//	                              tcp://127.0.0.1:0; tcp://, shm://, inproc://
//	                              or a bare host:port)
//	remote <instance> <addr> <key> [type]
//	                              install a supervised proxy component for a
//	                              remotely exported port (type default
//	                              esi.MatrixData; addr as for export, or the
//	                              address an export prints); the connection
//	                              redials with backoff, retries idempotent
//	                              calls, and circuit-breaks per the flags
//	                              above
//	health <instance> <port>      show a provides port's connection health
//	checkpoint <instance> <file>  save a Checkpointable instance's state to
//	                              a checkpoint file (atomic temp+rename)
//	restore <instance> <file>     restore an instance from a checkpoint file
//	swap <instance> <type>        hot-swap a running instance for a fresh
//	                              one of a repository type: connections are
//	                              re-wired live, state carries over when
//	                              both sides are Checkpointable
//	stats [prefix]                dump framework/ORB/transport metrics,
//	                              optionally filtered by name prefix
//	trace on|off                  toggle port-call tracing
//	trace [n]                     show the last n recorded spans (default 16)
//	remove <instance>             remove an instance
//	save <file>                   persist the repository (descriptions) as JSON
//	load <file.json>              merge a saved repository into this session
//	load <file.ccl> [K=V ...]     compile a declarative assembly (docs/CCL.md):
//	                              resolve its components (against the ccl
//	                              repository stanza's networked repository or
//	                              the local one), verify/create the lockfile,
//	                              and assemble the whole application —
//	                              components, remotes, exports, connections.
//	                              K=V pairs bind the document's ${VAR}s.
//	pull <instance> <port>        pull every rank of a connected collective
//	                              DistArray uses port and print a summary
//	events                        dump configuration events observed so far
//	quit
//
// The session is one ccl.Assembly. Each assembling verb is shorthand for
// the CCL declaration beside it and is applied to that assembly exactly as
// `load` applies a whole document, so there is one lowering onto
// repo.Builder and quitting closes everything through Assembly.Close:
//
//	create I T             component I { type T }
//	matrix I K N [VX VY]   component I { provider K config { n N vx VX vy VY } }
//	connect U UP P PP      connect U.UP -> P.PP
//	export I P [ADDR]      export I.P { address ADDR }
//	remote I ADDR KEY [T]  remote I { address ADDR key KEY type T }
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cca"
	ccoll "repro/internal/cca/collective"
	"repro/internal/ccl"
	"repro/internal/ckpt"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/orb"
)

func main() {
	script := flag.String("f", "", "script file (default: interactive stdin)")
	connectTimeout := flag.Duration("connect-timeout", 5*time.Second,
		"initial dial budget for remote connections")
	retry := flag.Int("retry", 4,
		"per-call attempt budget for idempotent methods across reconnects")
	breakerThreshold := flag.Int("breaker-threshold", 5,
		"consecutive failed redials before the circuit breaker opens")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the observability snapshot over HTTP at this address")
	pprofOn := flag.Bool("pprof", false,
		"also mount /debug/pprof profile handlers on the metrics address")
	flag.Parse()

	if *metricsAddr != "" {
		bound, closeMetrics, err := obs.ServeWith(*metricsAddr, obs.ServeOptions{Pprof: *pprofOn})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccafe:", err)
			os.Exit(1)
		}
		defer closeMetrics() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "ccafe: metrics at http://%s/\n", bound)
	}

	in := os.Stdin
	src, interactive := "<stdin>", true
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccafe:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		src, interactive = *script, false
	}

	// The default container: ESI and consumer deposits, and
	// FlavorDistributed for the supervised proxies `remote` installs.
	asm, err := ccl.New(ccl.Options{DefaultSupervisor: orb.SupervisorOptions{
		ConnectTimeout:   *connectTimeout,
		MaxAttempts:      *retry,
		BreakerThreshold: *breakerThreshold,
	}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccafe:", err)
		os.Exit(1)
	}
	defer asm.Close()
	sh := &shell{asm: asm, src: src}
	scanner := bufio.NewScanner(in)
	if interactive {
		fmt.Print("ccafe> ")
	}
	for scanner.Scan() {
		sh.line++
		line := strings.TrimSpace(scanner.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			if done := sh.exec(line); done {
				return
			}
		}
		if interactive {
			fmt.Print("ccafe> ")
		}
	}
}

// shell is one session: a live assembly plus the input position its
// declarations' diagnostics carry.
type shell struct {
	asm  *ccl.Assembly
	src  string
	line int
}

// exec runs one command line; returns true on quit.
func (sh *shell) exec(line string) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	app := sh.asm.App
	var err error
	switch cmd {
	case "quit", "exit":
		return true
	case "repository":
		for _, l := range app.Repo.List() {
			fmt.Printf("  %-40s %s\n", l.Name, l.Version)
		}
	case "describe":
		fmt.Print(app.Repo.Describe())
	case "sidl":
		if len(args) != 1 {
			err = fmt.Errorf("usage: sidl <qualified-type>")
			break
		}
		tbl := app.Repo.Table()
		kind := tbl.Lookup(args[0])
		if kind == "" {
			err = fmt.Errorf("no SIDL type %q", args[0])
			break
		}
		fmt.Printf("%s %s\n", kind, args[0])
		if iface, ok := tbl.Interfaces[args[0]]; ok {
			for _, m := range iface.Methods {
				fmt.Printf("  %s %s  (from %s)\n", m.Decl.Name, m.Decl.Signature(), m.Owner)
			}
		}
	case "create", "matrix", "connect", "export", "remote":
		err = sh.assemble(cmd, args)
	case "autoconnect":
		if len(args) != 2 {
			err = fmt.Errorf("usage: autoconnect <user> <provider>")
			break
		}
		var id cca.ConnectionID
		id, err = app.AutoConnect(args[0], args[1])
		if err == nil {
			fmt.Println(" ", id)
		}
	case "disconnect":
		if len(args) != 4 {
			err = fmt.Errorf("usage: disconnect <user> <uses> <provider> <provides>")
			break
		}
		err = app.Fw.Disconnect(cca.ConnectionID{
			User: args[0], UsesPort: args[1], Provider: args[2], ProvidesPort: args[3],
		})
	case "components":
		for _, n := range app.Fw.ComponentNames() {
			fmt.Println(" ", n)
		}
	case "connections":
		for _, id := range app.Fw.Connections() {
			fmt.Println(" ", id)
		}
	case "ports":
		if len(args) != 1 {
			err = fmt.Errorf("usage: ports <instance>")
			break
		}
		svc, ok := app.Fw.Services(args[0])
		if !ok {
			err = fmt.Errorf("no instance %q", args[0])
			break
		}
		for _, n := range svc.ProvidesPortNames() {
			info, _ := svc.PortInfo(n)
			fmt.Printf("  provides %-14s %s\n", n, info.Type)
		}
		for _, n := range svc.UsesPortNames() {
			info, _ := svc.PortInfo(n)
			fmt.Printf("  uses     %-14s %s\n", n, info.Type)
		}
	case "solve":
		err = sh.solve(args)
	case "health":
		if len(args) != 2 {
			err = fmt.Errorf("usage: health <instance> <port>")
			break
		}
		var h cca.Health
		if h, err = app.Fw.PortHealth(args[0], args[1]); err == nil {
			fmt.Printf("  %s.%s: %s\n", args[0], args[1], h)
		}
	case "checkpoint":
		err = sh.checkpoint(args)
	case "restore":
		err = sh.restore(args)
	case "swap":
		err = sh.swap(args)
	case "stats":
		sh.stats(args)
	case "trace":
		err = sh.trace(args)
	case "remove":
		if len(args) != 1 {
			err = fmt.Errorf("usage: remove <instance>")
			break
		}
		err = app.Fw.Remove(args[0])
	case "save":
		if len(args) != 1 {
			err = fmt.Errorf("usage: save <file>")
			break
		}
		var f *os.File
		if f, err = os.Create(args[0]); err != nil {
			break
		}
		err = app.Repo.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	case "load":
		if len(args) < 1 {
			err = fmt.Errorf("usage: load <file.json> | load <file.ccl> [K=V ...]")
			break
		}
		if strings.HasSuffix(args[0], ".ccl") {
			err = sh.loadCCL(args)
			break
		}
		if len(args) != 1 {
			err = fmt.Errorf("usage: load <file>")
			break
		}
		var f *os.File
		if f, err = os.Open(args[0]); err != nil {
			break
		}
		err = app.Repo.Load(f)
		f.Close()
	case "pull":
		err = sh.pull(args)
	case "events":
		for _, e := range app.Events() {
			switch {
			case e.Connection != (cca.ConnectionID{}):
				fmt.Printf("  %-18s %s\n", e.Kind, e.Connection)
			default:
				fmt.Printf("  %-18s %s\n", e.Kind, e.Component)
			}
		}
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccafe:", err)
	}
	return false
}

// declaration builds the CCL declaration an assembling verb is shorthand
// for (the table in the package comment), positioned at input line `line`.
func declaration(cmd string, args []string, line int) (*ccl.Document, error) {
	d := &ccl.Document{Version: ccl.LanguageVersion}
	switch cmd {
	case "create":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: create <instance> <type>")
		}
		d.Components = []*ccl.ComponentDecl{{Name: args[0], Type: args[1], Line: line}}
	case "matrix":
		if len(args) != 3 && len(args) != 5 {
			return nil, fmt.Errorf("usage: matrix <instance> poisson|advdiff|laplace1d <n> [vx vy]")
		}
		cfg := ccl.Config{{Key: "n", Value: args[2], Line: line}}
		if len(args) == 5 {
			cfg = append(cfg, ccl.KV{Key: "vx", Value: args[3], Line: line}, ccl.KV{Key: "vy", Value: args[4], Line: line})
		}
		d.Components = []*ccl.ComponentDecl{{Name: args[0], Provider: args[1], Config: cfg, Line: line}}
	case "connect":
		if len(args) != 4 {
			return nil, fmt.Errorf("usage: connect <user> <uses> <provider> <provides>")
		}
		d.Connects = []*ccl.ConnectDecl{{User: args[0], UsesPort: args[1], Provider: args[2], ProvidesPort: args[3], Line: line}}
	case "export":
		if len(args) < 2 || len(args) > 3 {
			return nil, fmt.Errorf("usage: export <instance> <port> [addr]")
		}
		e := &ccl.ExportDecl{Instance: args[0], Port: args[1], Line: line}
		if len(args) == 3 {
			e.Address = args[2]
		}
		d.Exports = []*ccl.ExportDecl{e}
	case "remote":
		if len(args) < 3 || len(args) > 4 {
			return nil, fmt.Errorf("usage: remote <instance> <addr> <key> [type]")
		}
		r := &ccl.RemoteDecl{Name: args[0], Address: args[1], Key: args[2], Line: line}
		if len(args) == 4 {
			r.Type = args[3]
		}
		d.Remotes = []*ccl.RemoteDecl{r}
	}
	return d, nil
}

// assemble runs an assembling verb: its declaration is applied to the
// session's assembly, then the verb's own confirmation line is printed.
// Supervision health transitions of a `remote` surface in `events` and
// `health`.
func (sh *shell) assemble(cmd string, args []string) error {
	d, err := declaration(cmd, args, sh.line)
	if err != nil {
		return err
	}
	d.Path = sh.src
	if err := sh.apply(d, ""); err != nil {
		return err
	}
	switch cmd {
	case "matrix":
		comp, _ := sh.asm.App.Component(args[0])
		if m, ok := comp.(esi.EsiMatrixData); ok {
			fmt.Printf("  %s: %dx%d, %d nonzeros\n", args[0], m.Rows(), m.Rows(), m.Nonzeros())
		}
	case "connect":
		c := d.Connects[0]
		fmt.Println(" ", cca.ConnectionID{User: c.User, UsesPort: c.UsesPort, Provider: c.Provider, ProvidesPort: c.ProvidesPort})
	case "remote":
		r := d.Remotes[0]
		fmt.Printf("  %s: supervised connection to %s (%s)\n", r.Name, r.Address, r.Type)
	}
	return nil
}

// apply applies a document — a verb's one declaration or a loaded file —
// to the session's assembly and prints the ports it published.
func (sh *shell) apply(d *ccl.Document, lockPath string) error {
	published := len(sh.asm.Exports)
	if err := sh.asm.Apply(d, lockPath); err != nil {
		return err
	}
	for _, e := range sh.asm.Exports[published:] {
		fmt.Printf("  exported %s at %s\n", e.Key, e.Addr)
	}
	return nil
}

// solve drives a solver instance with b = A·1.
func (sh *shell) solve(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: solve <solver-instance> [tol]")
	}
	comp, ok := sh.asm.App.Component(args[0])
	if !ok {
		return fmt.Errorf("no instance %q", args[0])
	}
	solver, ok := comp.(esi.EsiSolver)
	if !ok {
		return fmt.Errorf("%q does not provide esi.Solver", args[0])
	}
	if len(args) >= 2 {
		tol, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return err
		}
		solver.SetTolerance(tol)
	}
	aport, err := sh.asm.App.Port(args[0], "A")
	if err != nil {
		return fmt.Errorf("solver has no connected operator: %w", err)
	}
	op := aport.(esi.EsiOperator)
	nrows := int(op.Rows())
	ones := linalg.Ones(nrows)
	b := make([]float64, nrows)
	if err := op.Apply(ones, &b); err != nil {
		return err
	}
	x := make([]float64, nrows)
	iters, err := solver.Solve(b, &x)
	if err != nil {
		return err
	}
	maxErr := 0.0
	for _, v := range x {
		if d := v - 1; d > maxErr {
			maxErr = d
		} else if -d > maxErr {
			maxErr = -d
		}
	}
	fmt.Printf("  converged=%v iters=%d relres=%.3e max|x-1|=%.3e\n",
		solver.Converged(), iters, solver.FinalResidual(), maxErr)
	return nil
}

// checkpointable fetches an instance that implements the optional
// cca.Checkpointable port interface.
func (sh *shell) checkpointable(instance string) (cca.Checkpointable, error) {
	comp, ok := sh.asm.App.Component(instance)
	if !ok {
		return nil, fmt.Errorf("no instance %q", instance)
	}
	c, ok := comp.(cca.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("%q (%T) is not Checkpointable", instance, comp)
	}
	return c, nil
}

// checkpoint saves an instance's state to a checkpoint file.
func (sh *shell) checkpoint(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: checkpoint <instance> <file>")
	}
	c, err := sh.checkpointable(args[0])
	if err != nil {
		return err
	}
	if err := ckpt.SaveTo(args[1], c); err != nil {
		return err
	}
	fi, err := os.Stat(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("  checkpointed %s to %s (%d bytes)\n", args[0], args[1], fi.Size())
	return nil
}

// restore replays a checkpoint file into an instance.
func (sh *shell) restore(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: restore <instance> <file>")
	}
	c, err := sh.checkpointable(args[0])
	if err != nil {
		return err
	}
	if err := ckpt.LoadInto(args[1], c); err != nil {
		return err
	}
	fmt.Printf("  restored %s from %s\n", args[0], args[1])
	return nil
}

// swap hot-swaps a running instance for a fresh one of a repository type.
func (sh *shell) swap(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: swap <instance> <type>")
	}
	repl, err := sh.asm.App.Repo.Instantiate(args[1])
	if err != nil {
		return err
	}
	if err := sh.asm.App.Fw.Swap(args[0], repl); err != nil {
		return err
	}
	fmt.Printf("  swapped %s to a fresh %s\n", args[0], args[1])
	return nil
}

// stats dumps the observability registry: counters and gauges as plain
// values, histograms as count/mean/p50/p99 summaries (nanoseconds for the
// duration histograms). An optional prefix filters by metric name.
func (sh *shell) stats(args []string) {
	prefix := ""
	if len(args) > 0 {
		prefix = args[0]
	}
	snap := obs.Default.Snapshot()
	for _, n := range obs.Default.Names() {
		if !strings.HasPrefix(n, prefix) {
			continue
		}
		if v, ok := snap.Counters[n]; ok {
			fmt.Printf("  %-44s %d\n", n, v)
		} else if v, ok := snap.Gauges[n]; ok {
			fmt.Printf("  %-44s %d\n", n, v)
		} else if h, ok := snap.Histograms[n]; ok {
			fmt.Printf("  %-44s n=%d mean=%.0f p50=%d p99=%d\n",
				n, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
}

// trace toggles the span recorder or dumps its ring, newest last.
func (sh *shell) trace(args []string) error {
	n := 16
	if len(args) > 0 {
		switch args[0] {
		case "on":
			obs.Tracer.SetEnabled(true)
			fmt.Println("  tracing on")
			return nil
		case "off":
			obs.Tracer.SetEnabled(false)
			fmt.Println("  tracing off")
			return nil
		default:
			v, err := strconv.Atoi(args[0])
			if err != nil || v < 1 {
				return fmt.Errorf("usage: trace on|off|<n>")
			}
			n = v
		}
	}
	spans := obs.Tracer.Spans()
	if len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	for _, s := range spans {
		name := s.Key
		if s.Method != "" {
			name += "." + s.Method
		}
		fmt.Printf("  %016x %-12s %-24s %9.1fµs %s\n",
			s.Trace, s.Kind, name, float64(s.Dur)/1e3, s.Err)
	}
	fmt.Printf("  %d span(s) recorded, tracing=%v\n",
		obs.Tracer.Recorded(), obs.Tracer.Enabled())
	return nil
}

// loadCCL applies a declarative assembly to the session: parse, validate,
// resolve (against the document's repository stanza or the local
// repository), verify or create the lockfile, and lower the whole
// application. Trailing K=V arguments bind ${VAR} interpolations.
func (sh *shell) loadCCL(args []string) error {
	vars := map[string]string{}
	for _, kv := range args[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return fmt.Errorf("variable binding %q is not K=V", kv)
		}
		vars[k] = v
	}
	doc, err := ccl.Load(args[0], vars)
	if err != nil {
		return err
	}
	resolved := len(sh.asm.Resolutions)
	if err := sh.apply(doc, ccl.DefaultLockPath(args[0])); err != nil {
		return err
	}

	name := doc.Name
	if name == "" {
		name = args[0]
	}
	fmt.Printf("  assembled %s: %d component(s), %d remote(s), %d export(s), %d connection(s)\n",
		name, len(doc.Components), len(doc.Remotes), len(doc.Exports), len(doc.Connects))
	for _, r := range sh.asm.Resolutions[resolved:] {
		fmt.Printf("  resolved %s = %s %s (%s)\n", r.Instance, r.Type, r.Version, r.Source)
	}
	if sh.asm.LockCreated {
		fmt.Printf("  lockfile created: %s\n", sh.asm.LockPath)
	} else {
		fmt.Printf("  lockfile verified: %s\n", sh.asm.LockPath)
	}
	return nil
}

// pull drains one epoch of a connected collective DistArray uses port,
// rank by rank, and prints a per-rank summary.
func (sh *shell) pull(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pull <instance> <port>")
	}
	port, err := sh.asm.App.Port(args[0], args[1])
	if err != nil {
		return err
	}
	pull, ok := port.(ccoll.PullPort)
	if !ok {
		return fmt.Errorf("%s.%s (%T) is not a collective pull port", args[0], args[1], port)
	}
	fmt.Printf("  %s.%s: global length %d over %d rank(s)\n",
		args[0], args[1], pull.GlobalLen(), pull.Ranks())
	for r := 0; r < pull.Ranks(); r++ {
		out := make([]float64, pull.LocalLen(r))
		if err := pull.Pull(r, out); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		sum := 0.0
		for _, v := range out {
			sum += v
		}
		fmt.Printf("  pulled rank %d: len=%d sum=%.6f\n", r, len(out), sum)
	}
	return nil
}
