package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// contract is the shape of BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables pins BENCHMARK.json to the tables the program
// reports from: same names in the same order, same units, directions and
// bounds, every name well formed and used once.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\n code %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n json %+v\n code %+v", c.PerLayer, perLayer)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better=%q", d.Name, d.Better)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("workload name %q malformed or reused", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// tinyRun runs one workload at the smoke scale in-process.
func tinyRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	o := options{workload: name, seed: defaultSeed, tiny: true, trace: trace,
		traceOut: t.TempDir() + "/trace.json"}
	res, err := runWorkload(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := printResult(io.Discard, o, res); err != nil {
		t.Fatalf("%s: malformed run: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	return res
}

// wantMetrics checks that a run reported exactly the contract's metrics,
// each once, each with its unit.
func wantMetrics(t *testing.T, name string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics reported, contract has %d", name, len(res.Metrics), len(defs))
	}
	for i, d := range defs {
		if m := res.Metrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("%s: metric %d is %s [%s], contract says %s [%s]", name, i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}

// TestTinyWorkloads is the smoke test: every workload at its sub-second
// scale reports every end-to-end metric, repeats its digests and counts
// exactly from one run to the next, and matches its golden file.
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		a, b := tinyRun(t, name, false), tinyRun(t, name, false)
		wantMetrics(t, name, a, endToEnd)
		for _, k := range []string{"cells", "digest", "link_flits", "paper_gap_pp"} {
			if a.Info[k] != b.Info[k] {
				t.Errorf("%s: %s differs between two runs: %s vs %s", name, k, a.Info[k], b.Info[k])
			}
		}
		for _, m := range a.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, m.Value)
			}
		}
	}
}

// TestGoldenTiny compares every workload's tiny-scale digests at the default
// seed with its golden file: a simulator change that moves any simulated
// statistic fails here until the goldens are refreshed on purpose.
func TestGoldenTiny(t *testing.T) {
	for _, name := range workloadNames {
		cells, err := goldenCells(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffs, err := goldenMismatches(options{workload: name, seed: defaultSeed, tiny: true}, cells)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range diffs {
			t.Error(d)
		}
	}
}

// TestTinyTraced runs the traced pass — spans, layer rigs, golden
// comparison — on the workload with the most layers armed, twice: every
// per-layer name is reported once with its unit, and the counts repeat.
func TestTinyTraced(t *testing.T) {
	const name = "fault-degrade"
	a, b := tinyRun(t, name, true), tinyRun(t, name, true)
	wantMetrics(t, name, a, perLayer)
	for i, d := range perLayer {
		if d.Unit == "count" && a.Metrics[i].Value != b.Metrics[i].Value {
			t.Errorf("count %s differs between two runs: %v vs %v", d.Name, a.Metrics[i].Value, b.Metrics[i].Value)
		}
		if d.Name == "golden.mismatch_cells" && a.Metrics[i].Value != 0 {
			t.Errorf("golden.mismatch_cells = %v, want 0\n%v", a.Metrics[i].Value, a.Problems)
		}
	}
}
