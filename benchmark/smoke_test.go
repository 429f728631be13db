package main

import (
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload of BENCHMARK.json at about a hundredth of
// its episode size, untraced and traced, and holds the printed metric set
// to the set the contract names: same names, same units, no failed op.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(2)
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, layers := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(layers) != len(perLayer) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, layers.go %d", len(layers), len(perLayer))
	}
	for _, l := range perLayer {
		if layers[l.name] != l.unit {
			t.Errorf("per-layer metric %s: layers.go says %q, BENCHMARK.json %q", l.name, l.unit, layers[l.name])
		}
	}
	known := map[string]bool{}
	for _, w := range workloads(true) {
		known[w.name] = true
	}
	if len(known) != len(c.Workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(known))
	}

	for _, w := range c.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
			continue
		}
		if runtime.NumCPU() < 2 && strings.Contains(w.Name, ".p2") {
			continue // two ranks time-slicing one core only tests patience
		}
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = layers
			}
			out, err := runWorkload(runConfig{
				workload: w.Name, seed: 7, budget: time.Millisecond, minEpisodes: 1, trace: trace, small: true,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, contract names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for name, m := range out.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", w.Name, name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s has unit %q, contract says %q (named: %v)", w.Name, trace, name, m.Unit, unit, ok)
				}
			}
		}
	}
}

// TestSelfTimes pins the budget arithmetic: self times of a span tree add
// up to its root, and muted (warm-up) ops leave no spans.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "step", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "solve", Parent: 0, StartNs: 10, EndNs: 80},
		{Name: "spmv", Parent: 1, StartNs: 20, EndNs: 50},
		{Name: "spmv", Parent: 1, StartNs: 55, EndNs: 75},
	}
	self, n := selfTimes(spans)
	if self["step"] != 30 || self["solve"] != 20 || self["spmv"] != 50 || n["spmv"] != 2 {
		t.Fatalf("self=%v n=%v", self, n)
	}
	r := &recorder{mute: 1}
	for op := 0; op < 2; op++ {
		r.nextOp()
		r.begin("step")
		r.end()
	}
	if len(r.spans) != 1 || r.spans[0].Op != 1 {
		t.Fatalf("a muted op left spans: %+v", r.spans)
	}
}
