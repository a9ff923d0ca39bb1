// Command benchmark is the repository's benchmark: five workloads shaped
// like the experiments users of the simulator wait for, each reporting host
// time, simulated throughput, host cost per simulated event and memory, and
// — in a separate traced run — per-layer rigs, counts and spans. See
// README.md in this directory for the definitions.
//
//	bash benchmark/run.sh --workload fig8-uniform --seed 660174 --seconds 8 --trace 0
//	bash benchmark/run.sh --workload fig8-uniform --trace 1     # per-layer metrics + span trace
//	bash benchmark/run.sh -aa                                   # every workload twice, compared
//	bash benchmark/run.sh -update-golden                        # refresh golden/*.json
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/power"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	traceOut string
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run), in contract order.
	Metrics []reported
	// Info are exact simulated facts printed beside the metrics: the -aa
	// mode compares them between its two sets.
	Info map[string]string
	// Problems lists every failed cell and every failed self-check.
	Problems []string
}

type reported struct {
	Name  string
	Value float64
	Unit  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the traffic, trace and fault streams (0 selects the default)")
	fs.Float64Var(&o.seconds, "seconds", 8, "how long the timed repetitions run in total (at least three repetitions)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span trace and layer rigs; 0 = end-to-end metrics")
	scale := fs.String("scale", "full", "full, or tiny for the smoke test's sub-second workloads")
	fs.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its Chrome trace-event JSON (default .bench_build/trace-<workload>.json)")
	aa := fs.Bool("aa", false, "run every workload twice back to back and compare the two sets against the bounds")
	update := fs.Bool("update-golden", false, "rewrite the golden digests (of -workload, or of every workload) at the default seed")
	goldenDir := fs.String("golden-dir", "benchmark/golden", "directory -update-golden writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seed == 0 {
		o.seed = defaultSeed
	}
	o.trace = *traceFlag != 0
	switch *scale {
	case "full":
	case "tiny":
		o.tiny = true
	default:
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q\n", *scale)
		return 2
	}

	printHost(stdout)
	switch {
	case *update:
		names := workloadNames
		if o.workload != "" {
			names = []string{o.workload}
		}
		if err := updateGolden(names, *goldenDir, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *aa:
		return runAA(o, stdout, stderr)
	}

	res, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := printResult(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "benchmark: malformed run:", err)
		return 1
	}
	return 0
}

// repetition is one timed run of the workload's work.
type repetition struct {
	cells []cell
	wall  time.Duration
	alloc uint64 // bytes allocated during the repetition
}

func timeRep(w workload, tr *tracer) repetition {
	runtime.GC() // start every repetition from the same collector state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sp := tr.begin("rep", "")
	cells := w.rep(tr)
	tr.end(sp)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return repetition{cells: cells, wall: wall, alloc: after.TotalAlloc - before.TotalAlloc}
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 7

func runWorkload(o options, log io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	setups := make([]float64, setupRuns) // seconds
	for i := range setups {
		var str *tracer
		if i == setupRuns-1 {
			str = tr // the trace shows the set-up the repetitions ran on
		}
		runtime.GC() // as before a repetition: every set-up starts from the same collector state
		start := time.Now()
		sp := str.begin("setup", "")
		err := w.setup(str)
		str.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups[i] = time.Since(start).Seconds()
	}

	// Repetitions outside the span recorder: as many as fit in -seconds (to
	// the nearest whole repetition), at least three. A traced run stops at
	// three: they are only the untraced reference of its traced repetition.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget = 0
	}
	var reps []repetition
	var spent time.Duration
	for len(reps) < 3 || spent+spent/time.Duration(2*len(reps)) < budget {
		r := timeRep(w, nil)
		reps = append(reps, r)
		spent += r.wall
	}

	res := &result{Info: map[string]string{}}
	first := reps[0].cells
	walls := make([]float64, len(reps))
	allocs := make([]float64, len(reps))
	for i, r := range reps {
		res.Attempted += len(r.cells)
		res.Failed += checkCells(res, o, fmt.Sprintf("repetition %d", i+1), r.cells, first, i == 0)
		walls[i], allocs[i] = r.wall.Seconds(), float64(r.alloc)/1e6
	}
	wall := median(walls)
	fmt.Fprintf(log, "repetitions: wall_s=%.3f alloc_mb=%.1f setup_s=%.4f\n", walls, allocs, setups)
	var cycles int64
	for _, c := range first {
		cycles += c.Cycles
	}
	total := sumCounters(first)
	res.Info["reps"] = fmt.Sprint(len(reps))
	res.Info["cells"] = fmt.Sprint(len(first))
	res.Info["digest"] = combinedDigest(first)
	res.Info["paper_gap_pp"] = fmt.Sprint(w.paperGap(first))
	res.Info["link_flits"] = fmt.Sprint(total.LinkFlit)

	if !o.trace {
		if total.LinkFlit == 0 || cycles == 0 {
			res.Problems = append(res.Problems, "no simulated work: zero cycles or zero flit hops")
		} else {
			res.add(endToEnd, "wall_s", wall)
			res.add(endToEnd, "sim_mcycles_per_s", float64(cycles)/wall/1e6)
			res.add(endToEnd, "host_ns_per_flit_hop", wall*1e9/float64(total.LinkFlit))
			res.add(endToEnd, "alloc_mb", median(allocs))
			res.add(endToEnd, "peak_rss_mb", peakRSSMB())
			res.add(endToEnd, "setup_s", median(setups))
		}
		res.finish(endToEnd)
		return res, nil
	}

	// Traced run: one more repetition under the span recorder, the
	// activity pass, the layer rigs and the golden comparison.
	traced := timeRep(w, tr)
	res.Attempted += len(traced.cells)
	res.Failed += checkCells(res, o, "traced repetition", traced.cells, first, false)

	rg := &rigs{tiny: o.tiny, seed: o.seed, flightDir: filepath.Join(buildDir, "flight")}
	rg.run()
	res.Problems = append(res.Problems, rg.problems...)
	for name, v := range rg.out {
		res.add(perLayer, name, v)
	}
	res.Info["step_samples"] = fmt.Sprint(rg.stepSamples)

	mismatch, err := goldenMismatches(o, traced.cells)
	if err != nil {
		return nil, err
	}
	res.Problems = append(res.Problems, mismatch...)
	res.add(perLayer, "golden.mismatch_cells", float64(len(mismatch)))
	res.add(perLayer, "paper_gap_pp", w.paperGap(traced.cells))
	res.add(perLayer, "trace.overhead_pct", 100*(traced.wall.Seconds()/wall-1))
	res.add(perLayer, "sim.active_share", w.activeShare())
	res.add(perLayer, "network.auto_shards", float64(w.autoShards()))
	spanMetrics(res, tr, traced.cells)
	countMetrics(res, traced.cells)

	path := o.traceOut
	if path == "" {
		path = filepath.Join(buildDir, "trace-"+o.workload+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace: %d spans written to %s\n", len(tr.spans), path)
	printSpans(log, tr)
	res.finish(perLayer)
	return res, nil
}

// buildDir is where run.sh puts the binary and where the benchmark writes
// its own files (span traces, the flight recorder's directory), relative to
// the checkout root.
const buildDir = ".bench_build"

// checkCells records the cells of one repetition that failed or whose
// digests differ from the first repetition's, and returns how many. With
// notePanics it also lists the recovered panics that did not fail a cell
// (once per run is enough: every repetition recovers the same ones).
func checkCells(res *result, o options, which string, cells, first []cell, notePanics bool) int {
	bad := 0
	for i, c := range cells {
		reason := c.Fail
		if reason == "" && (i >= len(first) || first[i].ID != c.ID || first[i].Digest != c.Digest) {
			reason = "digest differs from the first repetition"
		}
		if reason != "" {
			bad++
			res.Problems = append(res.Problems, fmt.Sprintf("failed cell: workload=%s cell=%s arch=%s seed=%d (%s): %s",
				o.workload, c.ID, c.Arch, o.seed, which, reason))
		}
		if notePanics && c.Panic != "" && c.Fail == "" {
			res.Problems = append(res.Problems, fmt.Sprintf("note: recovered panic (a detected outcome): workload=%s cell=%s arch=%s seed=%d: %s",
				o.workload, c.ID, c.Arch, o.seed, c.Panic))
		}
	}
	if len(cells) != len(first) {
		bad++
		res.Problems = append(res.Problems, fmt.Sprintf("%s ran %d cells, the first ran %d", which, len(cells), len(first)))
	}
	return bad
}

func combinedDigest(cells []cell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s=%s\n", c.ID, c.Digest)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// add records one metric, taking its unit from the contract table.
func (res *result) add(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			res.Metrics = append(res.Metrics, reported{Name: name, Value: v, Unit: d.Unit})
			return
		}
	}
	res.Problems = append(res.Problems, "metric "+name+" is not in the contract table")
}

// finish orders the metrics as the contract lists them, checks that each
// was reported exactly once, and settles correctness. Notes (recovered
// panics in fault campaigns) are listed but do not make a run incorrect.
func (res *result) finish(defs []metricDef) {
	byName := map[string][]reported{}
	for _, m := range res.Metrics {
		byName[m.Name] = append(byName[m.Name], m)
	}
	res.Metrics = res.Metrics[:0]
	for _, d := range defs {
		if got := byName[d.Name]; len(got) == 1 {
			res.Metrics = append(res.Metrics, got[0])
		} else {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s reported %d times, want once", d.Name, len(got)))
		}
	}
	res.Correct = res.Failed == 0
	for _, p := range res.Problems {
		if !strings.HasPrefix(p, "note: ") {
			res.Correct = false
		}
	}
}

// spanMetrics derives the harness-level timings from the traced
// repetition's spans. A cell is a direct child of the "rep" span, and the
// drivers open one per cell in cell order.
func spanMetrics(res *result, tr *tracer, cells []cell) {
	rep := -1
	for i, s := range tr.spans {
		if s.Name == "rep" {
			rep = i
		}
	}
	spans := tr.children(rep)
	if len(spans) != len(cells) {
		res.Problems = append(res.Problems, fmt.Sprintf("traced repetition has %d cell spans for %d cells", len(spans), len(cells)))
		return
	}
	var archS [4]float64
	durs := make([]float64, len(spans))
	for i, s := range spans {
		durs[i] = ms(s.dur())
		archS[cells[i].Arch] += s.dur().Seconds()
	}
	sort.Float64s(durs)
	res.add(perLayer, "harness.cells", float64(len(spans)))
	res.add(perLayer, "harness.cell_ms_p50", durs[len(durs)/2])
	res.add(perLayer, "harness.cell_ms_max", durs[len(durs)-1])
	for a, key := range archKeys {
		res.add(perLayer, "harness.arch_s."+key, archS[a])
	}
	// Attribution: the share of the repetition inside named leaf-level
	// spans, i.e. everything but the self time of "rep" and of the open
	// drivers' "cell" wrappers.
	self := tr.selfTimes()
	unnamed := self[rep]
	for i, s := range tr.spans {
		if s.Name == "cell" {
			unnamed += self[i]
		}
	}
	res.add(perLayer, "trace.attributed_pct", 100*(1-float64(unnamed)/float64(tr.spans[rep].dur())))
}

// countMetrics reports the simulated event counts of the traced repetition,
// by the layer that produced them. They repeat exactly for a given seed.
func countMetrics(res *result, cells []cell) {
	c := sumCounters(cells)
	var epochs, retransmits, undeliverable int64
	for _, cl := range cells {
		epochs += cl.Epochs
		retransmits += cl.Retransmits
		undeliverable += cl.Undeliverable
	}
	count := func(name string, v int64) { res.add(perLayer, name, float64(v)) }
	count("router.buf_writes", c.BufWrite)
	count("router.xbar", c.Xbar)
	count("router.arb", c.Arb)
	res.add(perLayer, "router.wasted_cycle_share", wastedShare(c))
	count("core.collisions", c.Collisions)
	count("core.encoded_flits", c.EncodedFlits)
	count("core.decodes", c.Decode)
	count("core.aborts", c.Aborts)
	count("noc.link_flits", c.LinkFlit)
	count("noc.link_invalid", c.LinkInvalid)
	count("network.reconfig_epochs", epochs)
	count("network.retransmits", retransmits)
	count("network.undeliverable", undeliverable)
}

// wastedShare is the share of driven output cycles lost to misspeculation.
func wastedShare(c power.Counters) float64 {
	if c.WastedCycles+c.OutputActive == 0 {
		return 0
	}
	return float64(c.WastedCycles) / float64(c.WastedCycles+c.OutputActive)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// printResult prints every metric by name with its unit, the exact facts,
// every problem, and last the one-line JSON object the driver reads. A run
// that cannot report every metric as a finite number is malformed: it
// prints no result object and the process exits non-zero.
func printResult(w io.Writer, o options, res *result) error {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "workload %s seed %d: %s metrics (timings are medians of n=%s repetitions)\n", o.workload, o.seed, kind, res.Info["reps"])
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "info")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, res.Info[k])
	}
	fmt.Fprintln(w)
	for _, p := range res.Problems {
		fmt.Fprintln(w, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil { // a NaN or an infinity among the metrics
		return err
	}
	want := len(endToEnd)
	if o.trace {
		want = len(perLayer)
	}
	if len(metrics) != want {
		return fmt.Errorf("%d of %d metrics reported", len(metrics), want)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printSpans prints the traced repetition's self-time table.
func printSpans(w io.Writer, tr *tracer) {
	fmt.Fprintf(w, "spans by name (self = span minus its children):\n  %-28s %8s %12s %12s\n", "name", "count", "total ms", "self ms")
	for _, nt := range tr.summary() {
		fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f\n", nt.Name, nt.Count, ms(nt.Total), ms(nt.Self))
	}
}
