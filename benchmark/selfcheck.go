package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// contract is the part of BENCHMARK.json the program itself reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(b, &c)
}

// selfCheck runs every workload of BENCHMARK.json twice on this build, one
// process per run, and reports each end-to-end metric of the second set
// against the first: a pair further apart than the metric's own bound, or
// any failed op, makes the exit code 1. The two sets go to standard output
// as a table for README.md.
func selfCheck(seconds float64) int {
	c, err := readContract("BENCHMARK.json")
	must(err)
	self, err := os.Executable()
	must(err)
	one := func(workload string) output {
		cmd := exec.Command(self, "--workload", workload, "--seed", "1",
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		must(err)
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var out output
		must(json.Unmarshal(lines[len(lines)-1], &out))
		return out
	}
	bad := 0
	fmt.Println("| workload | metric | unit | set 1 | set 2 | worse by | bound |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, w := range c.Workloads {
		a, b := one(w.Name), one(w.Name)
		if a.Failed+b.Failed > 0 {
			fmt.Printf("| %s | failed ops | count | %d | %d | | 0 |\n", w.Name, a.Failed, b.Failed)
			bad++
		}
		for _, m := range c.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound {
				flag = " **over**"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %+.1f%%%s | %.0f%% |\n",
				w.Name, m.Name, m.Unit, va, vb, 100*worse, flag, 100*m.Bound)
		}
	}
	if bad > 0 {
		fmt.Printf("\nselfcheck: %d pair(s) outside their bound\n", bad)
		return 1
	}
	fmt.Println("\nselfcheck: both sets agree within every bound")
	return 0
}
