package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSignTest pins the exact two-sided sign test at the splits a ten-pair
// claim turns on: 10/10 and 9/10 (either way round), an even split, and no
// decided pair at all.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		won, n int
		want   float64
	}{
		{10, 10, 0.001953125}, {0, 10, 0.001953125}, {9, 10, 0.021484375}, {1, 10, 0.021484375},
		{8, 10, 0.109375}, {5, 10, 1}, {0, 0, 1}, {1, 1, 1},
	} {
		if got := signTestP(c.won, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.won, c.n, got, c.want)
		}
	}
}

// fakeRunner stands in for two benchmark checkouts: every run reports the
// same exact facts for a seed, except the head's at mismatchPair, whose
// digest differs. The head is faster by a tenth.
type fakeRunner struct {
	calls        []string
	mismatchPair int
}

func (f *fakeRunner) run(dir, workload string, seed uint64) (abRun, error) {
	f.calls = append(f.calls, dir)
	digest := fmt.Sprintf("%x", seed)
	wall := 2.0 + float64(len(f.calls))/100
	if dir == "head" {
		wall *= 0.9
		if (len(f.calls)-1)/2 == f.mismatchPair {
			digest += "0"
		}
	}
	return abRun{
		Metrics: map[string]float64{"wall_s": wall, "alloc_mb": 100},
		Facts:   map[string]string{"digest": digest, "cells": "32", "link_flits": "7", "paper_gap_pp": "1.5", "reps": "4"},
	}, nil
}

// TestABPairs: pairs alternate which side runs first, both sides of a pair
// share a seed, seeds differ between pairs, and the summary counts the
// head's wins by each metric's direction (ties decide nothing). A pair
// whose sides disagree on an exact fact stops the run with that fact named.
func TestABPairs(t *testing.T) {
	f := &fakeRunner{mismatchPair: -1}
	pairs, err := abPairs(f.run, "base", "head", "0123abcd", "fig10-apps", 4, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.calls, " "); got != "base head head base base head head base" {
		t.Errorf("run order %q, want the first side flipping each pair", got)
	}
	seeds := map[uint64]bool{}
	for _, p := range pairs {
		seeds[p.Seed] = true
		if p.Base.Facts["digest"] != fmt.Sprintf("%x", p.Seed) {
			t.Errorf("pair at seed %d ran another seed", p.Seed)
		}
	}
	if len(seeds) != 4 || pairs[1].First != "head" {
		t.Errorf("seeds %v, second pair first side %q", seeds, pairs[1].First)
	}
	sum, unmeasured := summarize(pairs, contract{EndToEnd: []metric{{"wall_s", "lower", 0.25}, {"alloc_mb", "lower", 0.12}}})
	if len(sum) != 2 || unmeasured != nil {
		t.Fatalf("summary %+v, unmeasured %q: want both metrics measured", sum, unmeasured)
	}
	if w := sum[0]; w.Won != 4 || w.Decided != 4 || w.P != 0.125 || !(w.Head[1] < w.Base[1]) {
		t.Errorf("wall_s summary %+v, want 4/4 head wins", w)
	}
	if a := sum[1]; a.Decided != 0 || a.P != 1 {
		t.Errorf("alloc_mb summary %+v, want every pair tied", a)
	}

	f = &fakeRunner{mismatchPair: 2}
	pairs, err = abPairs(f.run, "base", "head", "0123abcd", "fig10-apps", 4, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exact fact digest differs") || len(pairs) != 2 {
		t.Errorf("digest mismatch at pair 3: err %v after %d pairs", err, len(pairs))
	}
}

// TestABWorkloads: without -workload every workload runs in turn, each with
// its own summary and its own record, named after it; a workload whose pair
// disagrees on an exact fact stops the loop there.
func TestABWorkloads(t *testing.T) {
	c := contract{EndToEnd: []metric{{"wall_s", "lower", 0.25}}}
	tmpl := abRecord{Schema: "nox-ab/v1", BaseSHA: "base", HeadSHA: "0123abcd"}
	workloads := []string{"fig10-apps", "mesh32-dense"}
	var stdout strings.Builder
	f := &fakeRunner{mismatchPair: -1}
	if err := abWorkloads(&stdout, io.Discard, f.run, c, tmpl, "base", "head", workloads, 2, "-"); err != nil {
		t.Fatal(err)
	}
	if len(f.calls) != 8 || strings.Count(stdout.String(), `"schema": "nox-ab/v1"`) != 2 {
		t.Fatalf("%d runs, output:\n%s", len(f.calls), stdout.String())
	}
	for _, w := range workloads {
		if !strings.Contains(stdout.String(), w+": 2 pairs") || !strings.Contains(stdout.String(), `"workload": "`+w+`"`) {
			t.Errorf("no summary or record of %s:\n%s", w, stdout.String())
		}
	}

	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	f = &fakeRunner{mismatchPair: 2} // the second workload's first pair
	err = abWorkloads(io.Discard, io.Discard, f.run, c, tmpl, "base", "head", workloads, 2, "")
	if err == nil || !strings.Contains(err.Error(), "mesh32-dense pair 1") {
		t.Errorf("mismatch in the second workload: err %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "BENCH_*"))
	if len(files) != 1 || !strings.HasSuffix(files[0], "-fig10-apps.json") {
		t.Errorf("records %q, want the first workload's alone, named after it", files)
	}
}

// TestCompareImprovementNeverFails: the summary counts a head win by the
// metric's direction, so a head that reads higher on a "higher" metric wins
// every pair and one that reads lower loses every pair.
func TestCompareImprovementNeverFails(t *testing.T) {
	var pairs []abPair
	for i := range 4 {
		v := float64(10 + i)
		pairs = append(pairs, abPair{
			Base: abRun{Metrics: map[string]float64{"sim_mcycles_per_s": v, "wall_s": v}},
			Head: abRun{Metrics: map[string]float64{"sim_mcycles_per_s": 2 * v, "wall_s": 2 * v}},
		})
	}
	sum, _ := summarize(pairs, contract{EndToEnd: []metric{{"sim_mcycles_per_s", "higher", 0.25}, {"wall_s", "lower", 0.25}}})
	if up := sum[0]; up.Won != 4 || up.Decided != 4 || up.Head[1] <= up.Base[1] {
		t.Errorf("higher metric summary %+v, want 4/4 head wins", up)
	}
	if down := sum[1]; down.Won != 0 || down.Decided != 4 {
		t.Errorf("lower metric summary %+v, want 0/4 head wins", down)
	}
}

// TestCompareMissingMetrics: a contract metric that some run did not report
// (a base that predates it) is left out of the summary with a note naming
// the side that lacks it; it is never read as 0 and counted as a win.
func TestCompareMissingMetrics(t *testing.T) {
	pairs := []abPair{
		{Base: abRun{Metrics: map[string]float64{"wall_s": 2}}, Head: abRun{Metrics: map[string]float64{"wall_s": 1.9, "setup_s": 0.1}}},
		{Base: abRun{Metrics: map[string]float64{"wall_s": 2.1}}, Head: abRun{Metrics: map[string]float64{"wall_s": 2, "setup_s": 0.1}}},
	}
	c := contract{EndToEnd: []metric{{"wall_s", "lower", 0.25}, {"setup_s", "lower", 0.25}, {"peak_rss_mb", "lower", 0.2}}}
	sum, unmeasured := summarize(pairs, c)
	if len(sum) != 1 || sum[0].Metric != "wall_s" || sum[0].Won != 2 {
		t.Errorf("summary %+v, want wall_s alone, won 2/2", sum)
	}
	want := []string{"setup_s: not measured on base", "peak_rss_mb: not measured on base and head"}
	if strings.Join(unmeasured, "|") != strings.Join(want, "|") {
		t.Errorf("unmeasured %q, want %q", unmeasured, want)
	}
	var out strings.Builder
	printSummary(&out, abRecord{Workload: "w", Pairs: pairs, Summary: sum, Unmeasured: unmeasured})
	if !strings.Contains(out.String(), "setup_s: not measured on base, left out") {
		t.Errorf("summary does not note the unmeasured metric:\n%s", out.String())
	}
}

// lowloadRun is a benchmark/run.sh run of lowload-uniform, verbatim.
const lowloadRun = `host: nproc=2 GOMAXPROCS=2 cpu="Intel(R) Xeon(R) Processor" go=go1.24.0 git=a9f6f8fab998 load1=1.70
repetitions: wall_s=[1.343 1.349 1.248 1.270 1.337 1.281] alloc_mb=[3.0 3.0 3.0 3.0 3.0 3.0] setup_s=[0.0553 0.0602 0.0755 0.0762 0.0763 0.0764 0.0797]
workload lowload-uniform seed 7: end-to-end metrics (timings are medians of n=6 repetitions)
  wall_s                                         1.3091 s
  sim_mcycles_per_s                             2.77749 Mcycles/s
  host_ns_per_flit_hop                          398.924 ns
  alloc_mb                                      2.98658 MB
  peak_rss_mb                                    12.375 MB
  setup_s                                     0.0762308 s
info cells=12 digest=f644c68526516287 link_flits=3281573 paper_gap_pp=0 reps=6
{"correct":true,"attempted":72,"failed":0,"metrics":{"alloc_mb":{"value":2.986584,"unit":"MB"},"host_ns_per_flit_hop":{"value":398.9236646571629,"unit":"ns"},"peak_rss_mb":{"value":12.375,"unit":"MB"},"setup_s":{"value":0.076230773,"unit":"s"},"sim_mcycles_per_s":{"value":2.7774868075163073,"unit":"Mcycles/s"},"wall_s":{"value":1.309097127,"unit":"s"}}}
`

// TestParseBenchOutput reads the host line, the info line's facts and the
// closing result object, and rejects a run that is not correct.
func TestParseBenchOutput(t *testing.T) {
	r, err := parseBenchOutput([]byte(lowloadRun))
	if err != nil {
		t.Fatal(err)
	}
	if r.host != `nproc=2 GOMAXPROCS=2 cpu="Intel(R) Xeon(R) Processor" go=go1.24.0 git=a9f6f8fab998 load1=1.70` ||
		r.Facts["digest"] != "f644c68526516287" || r.Facts["paper_gap_pp"] != "0" || r.Metrics["wall_s"] != 1.309097127 || len(r.Metrics) != 6 {
		t.Errorf("misparsed: %+v", r)
	}
	bad := strings.Replace(lowloadRun, `"correct":true,"attempted":72,"failed":0`, `"correct":false,"attempted":72,"failed":1`, 1)
	if _, err := parseBenchOutput([]byte(bad)); err == nil {
		t.Error("a run with a failed cell parsed as a result")
	}
	if _, err := parseBenchOutput([]byte("host: x\n")); err == nil {
		t.Error("a run without a result object parsed as a result")
	}
}

// TestABVerdict: the summary's verdict column. The first row is a real
// fig8-uniform setup_s summary of a change that alters no code the metric
// times: +10.9 % at 0/10 pairs, inside its bound and the base's spread
// narrow, so it reads flat.
func TestABVerdict(t *testing.T) {
	for _, c := range []struct {
		name string
		m    abMetric
		want string
	}{
		{"layout-only setup_s", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.04797, 0.04897, 0.04997}, Head: [3]float64{0.05152, 0.05431, 0.05558}, Won: 0, Decided: 10}, "flat"},
		{"halved setup_s", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.066, 0.072, 0.084}, Head: [3]float64{0.035, 0.037, 0.040}, Won: 10, Decided: 10}, "gain"},
		{"9 of 9 decided, one tie", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.9, 1, 1.1}, Head: [3]float64{0.7, 0.75, 0.8}, Won: 9, Decided: 9}, "gain"},
		{"higher is better", abMetric{Better: "higher", Bound: 0.25,
			Base: [3]float64{9, 10, 11}, Head: [3]float64{12, 13, 14}, Won: 10, Decided: 10}, "gain"},
		{"won 8 of 10", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.9, 1, 1.1}, Head: [3]float64{0.5, 0.6, 0.7}, Won: 8, Decided: 10}, "flat"},
		{"gap within the base IQR", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.9, 1, 1.1}, Head: [3]float64{0.85, 0.9, 0.95}, Won: 10, Decided: 10}, "flat"},
		{"past the bound", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.95, 1, 1.05}, Head: [3]float64{1.2, 1.3, 1.4}, Won: 0, Decided: 10}, "worse"},
		{"past the bound, higher is better", abMetric{Better: "higher", Bound: 0.25,
			Base: [3]float64{9.5, 10, 10.5}, Head: [3]float64{6, 7, 8}, Won: 0, Decided: 10}, "worse"},
		{"within the bound", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.95, 1, 1.05}, Head: [3]float64{1.1, 1.2, 1.3}, Won: 1, Decided: 10}, "flat"},
		{"base spread wider than the bound", abMetric{Better: "lower", Bound: 0.25,
			Base: [3]float64{0.8, 1, 1.3}, Head: [3]float64{0.9, 1.1, 1.3}, Won: 4, Decided: 10}, "unresolved"},
		{"exact metric, every pair tied", abMetric{Better: "lower", Bound: 0.12,
			Base: [3]float64{17.28, 17.28, 17.28}, Head: [3]float64{17.28, 17.28, 17.28}}, "flat"},
	} {
		if got := c.m.verdict(); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
