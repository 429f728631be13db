// Command ccabench is the repository's benchmark: one named workload per
// process, every answer checked, every metric printed by name with its
// unit. README.md in this directory says what each workload and metric is
// for; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh --workload fig1.p1 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with the library's instruments off; with
// --trace 1 they are the per-layer ones, from a second kind of run that
// also writes its spans to .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir holds everything a run writes — shm rendezvous directories,
// trace files — under the working directory, next to the built binary.
const buildDir = ".bench_build"

func tmpDir() string {
	dir := filepath.Join(buildDir, "tmp")
	must(os.MkdirAll(dir, 0o755))
	abs, err := filepath.Abs(dir)
	must(err)
	return abs
}

// runConfig is one invocation.
type runConfig struct {
	workload    string
	seed        int64
	budget      time.Duration // measured time to fill with whole episodes
	minEpisodes int           // at least this many, for the set-up median
	trace       bool
	small       bool // smoke-test sizes: ~1/100 of the work per episode
}

// workload is one entry of the table BENCHMARK.json names.
type workload struct {
	name string
	// run returns the end-to-end summary and, when c.trace, the per-layer
	// rows it measured (the rest stay 0: this workload does not run them).
	run func(c runConfig) (summary, map[string]metric, error)
}

func workloads(small bool) []workload {
	fig := func(ranks int, shm bool, grid, warm, steps int) func(runConfig) (summary, map[string]metric, error) {
		if small {
			grid, warm, steps = grid/4, 2, 6
		}
		return fig1Workload{ranks: ranks, shm: shm, params: fig1Params{
			grid: grid, warm: warm, steps: steps,
			nu: 5000, dt: 0.002, tol: 1e-9, vel: [2]float64{1, 0.5},
		}}.run
	}
	bulk := spmdBulk{vecLen: 1 << 17, partLen: 1 << 15, warm: 40, rounds: 300}
	if small {
		bulk.warm, bulk.rounds = 2, 4
	}
	rpcSmall := rpcWorkload{rows: 16, warm: 10000, calls: 40000}
	rpcBulk := rpcWorkload{rows: 65536, warm: 100, calls: 400}
	if small {
		rpcSmall.warm, rpcSmall.calls = 20, 200
		rpcBulk.warm, rpcBulk.calls = 1, 4
	}
	mxn := mxnPull{length: 1000000, warm: 15, rounds: 80}
	if small {
		mxn.warm, mxn.rounds = 1, 2
	}
	return []workload{
		{"fig1.p1", fig(1, false, 192, 10, 40)},
		{"fig1.p2", fig(2, false, 192, 10, 40)},
		{"fig1.p2.shm", fig(2, true, 64, 40, 200)},
		{"spmd.bulk", bulk.run},
		{"rpc.small", rpcSmall.run},
		{"rpc.bulk", rpcBulk.run},
		{"mxn.pull", mxn.run},
	}
}

// envInfo is recorded with every output: numbers from different machines
// or toolchains are not comparable.
type envInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
}

func environment() envInfo {
	e := envInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A developer's checkout is a git repository; the driver's is not, and
	// git must not go looking for one above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.Revision = strings.TrimSpace(string(out))
		}
	}
	return e
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload and shapes its result to the contract:
// the end-to-end metrics untraced, every per-layer metric traced.
func runWorkload(c runConfig) (output, error) {
	for _, w := range workloads(c.small) {
		if w.name != c.workload {
			continue
		}
		setTracing(false)
		s, layers, err := w.run(c)
		if err != nil {
			return output{}, err
		}
		out := output{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed}
		if !c.trace {
			out.Metrics = map[string]metric{
				"setup_s":   {s.setupS, "s"},
				"ops_per_s": {s.opsPerS, "1/s"},
				"op_p50_us": {s.p50us, "us"},
			}
			return out, nil
		}
		out.Metrics = map[string]metric{}
		for _, l := range perLayer {
			out.Metrics[l.name] = metric{0, l.unit}
		}
		for name, m := range layers {
			if _, ok := out.Metrics[name]; !ok {
				return output{}, fmt.Errorf("workload %s reported %q, which perLayer does not name", c.workload, name)
			}
			out.Metrics[name] = m
		}
		return out, nil
	}
	return output{}, fmt.Errorf("unknown workload %q", c.workload)
}

func main() {
	// Two cores is the machine this benchmark is defined on: ranks, par
	// workers and the two load-generating callers all compete for them.
	runtime.GOMAXPROCS(2)

	var c runConfig
	var seconds float64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&c.seed, "seed", 1, "moves input values only; sizes and counts never change")
	flag.Float64Var(&seconds, "seconds", 10, "measured time to fill with whole episodes")
	flag.IntVar(&trace, "trace", 0, "1: per-layer metrics from a traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the sets against the bounds")
	flag.Parse()
	c.budget = time.Duration(seconds * float64(time.Second))
	c.trace = trace != 0
	c.minEpisodes = 3
	if c.trace {
		c.minEpisodes = 1 // a traced round is already several episodes
	}

	if *selfcheck {
		os.Exit(selfCheck(seconds))
	}
	out, err := runWorkload(c)
	must(err)
	env, _ := json.Marshal(environment())
	fmt.Printf("{\"env\": %s}\n", env)
	line, err := json.Marshal(out)
	must(err)
	fmt.Println(string(line))
}
