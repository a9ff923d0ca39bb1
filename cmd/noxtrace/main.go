// Command noxtrace runs a short probed simulation and exports the
// flit-level event stream and per-router metrics: a Chrome trace-event JSON
// file (load it at https://ui.perfetto.dev or chrome://tracing; one process
// per router, one track per port), a textual waveform, per-router and
// heatmap CSVs, and the periodic time series.
//
// Usage:
//
//	noxtrace -arch nox -width 4 -height 4 -rate 1800 -out trace.json
//	noxtrace -waveform - -cycles 200 -rate 2500      # waveform to stdout
//	noxtrace -routers-csv routers.csv -heatmap-csv heat.csv -timeseries-csv ts.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noxtrace:", err)
	os.Exit(1)
}

// withOut opens path ('-' = stdout, "" = skip) and runs write against it.
func withOut(path string, write func(w io.Writer) error) {
	if path == "" {
		return
	}
	if path == "-" {
		if err := write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// parseTraceEvents parses Chrome trace-event JSON and returns the event
// count, rejecting documents with no events. Factored from validateTrace so
// the fuzz target can drive it on raw bytes.
func parseTraceEvents(data []byte) (int, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("invalid trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace JSON has no events")
	}
	return len(doc.TraceEvents), nil
}

// validateTrace parses a previously emitted Chrome trace file and checks it
// holds a non-empty event array — the make trace-smoke gate.
func validateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := parseTraceEvents(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, n)
	return nil
}

// validateMetrics parses a Prometheus text-exposition document (a saved
// /metrics scrape) and checks it holds at least one sample — the make
// telemetry-smoke gate.
func validateMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := telemetry.ParseExposition(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if n == 0 {
		return fmt.Errorf("%s: exposition holds no samples", path)
	}
	fmt.Printf("%s: valid Prometheus exposition, %d samples\n", path, n)
	return nil
}

func main() {
	cli := telemetry.NewCLI("noxtrace", telemetry.LiveFlags|telemetry.ProfileFlags)
	seed := cli.Seed(0xA11CE)
	var (
		archName = flag.String("arch", "nox", "router architecture: nonspec|specfast|specaccurate|nox")
		pattern  = flag.String("pattern", "uniform", "traffic pattern: uniform|transpose|bitcomp|bitrev|shuffle|tornado|neighbor|hotspot|selfsimilar")
		rate     = flag.Float64("rate", 1500, "offered injection bandwidth (MB/s/node)")
		flits    = flag.Int("flits", 1, "packet length in flits")
		width    = flag.Int("width", 4, "mesh width in routers")
		height   = flag.Int("height", 4, "mesh height in routers")
		cycles   = flag.Int64("cycles", 2000, "cycles of traffic before the drain")
		drain    = flag.Int64("drain", 20000, "drain cycle limit after traffic stops")
		ring     = flag.Int("ring", 1<<18, "event ring capacity (rounded up to a power of two; the ring keeps the most recent events)")
		sample   = flag.Int64("sample", 100, "time-series sampling interval in cycles (0 disables the sampler)")
		out      = flag.String("out", "trace.json", "Chrome trace-event JSON output file ('-' = stdout, '' = skip)")
		waveform = flag.String("waveform", "", "textual waveform output file ('-' = stdout)")
		routers  = flag.String("routers-csv", "", "per-router metrics CSV output file")
		heatmap  = flag.String("heatmap-csv", "", "mesh traversal heatmap CSV output file")
		series   = flag.String("timeseries-csv", "", "periodic time-series CSV output file")
		validate = flag.String("validate", "", "validate an existing Chrome trace JSON file and exit")
		valMet   = flag.String("validate-metrics", "", "validate a saved Prometheus /metrics scrape and exit")
	)
	sess, _, stop := cli.Start()
	defer stop()
	if *validate != "" {
		if err := validateTrace(*validate); err != nil {
			fatal(err)
		}
		return
	}
	if *valMet != "" {
		if err := validateMetrics(*valMet); err != nil {
			fatal(err)
		}
		return
	}

	arch, err := router.ArchByName(*archName)
	if err != nil {
		fatal(err)
	}
	topo := noc.Topology{Width: *width, Height: *height}
	periodNs := physical.ClockPeriodNs(arch)
	if err := harness.CheckRate(*pattern, *rate); err != nil {
		fatal(err)
	}

	flitRate := harness.FlitsPerNodeCycle(*rate, periodNs)
	pktRate := flitRate / float64(*flits)
	if pktRate >= 1 {
		fatal(fmt.Errorf("offered rate %.0f MB/s/node exceeds one packet per cycle at %v", *rate, arch))
	}

	selfSimilar := *pattern == "selfsimilar"
	patName := *pattern
	if selfSimilar {
		patName = "uniform" // the Pareto ON/OFF process picks uniform destinations
	}
	pat, err := traffic.ByName(patName, topo)
	if err != nil {
		fatal(err)
	}

	rep := sess.Sampler()
	var obs func(cycle int64, active int)
	if rep != nil {
		obs = rep.Observe
	}
	pr := probe.New(probe.Config{RingEvents: *ring, SampleEvery: *sample, PeriodNs: periodNs})
	net, err := network.Build(network.Config{Topo: topo, Arch: arch, Probe: pr, Observer: obs})
	if err != nil {
		fatal(err)
	}
	defer net.Close()
	rep.RunStarted()

	base := sim.NewRNG(*seed)
	nodes := topo.Nodes()
	procs := make([]traffic.Process, nodes)
	dests := make([]*sim.RNG, nodes)
	for i := range procs {
		r := base.Fork(uint64(i))
		if selfSimilar {
			procs[i] = traffic.NewSelfSimilar(pktRate, r)
		} else {
			procs[i] = &traffic.Bernoulli{P: pktRate, RNG: r}
		}
		dests[i] = base.Fork(uint64(1000 + i))
	}

	for cyc := int64(0); cyc < *cycles; cyc++ {
		for id := 0; id < nodes; id++ {
			if !procs[id].Tick() {
				continue
			}
			src := noc.NodeID(id)
			dst := pat.Dest(src, dests[id])
			if dst == src {
				continue
			}
			net.Inject(src, dst, *flits, 0)
		}
		net.Step()
		rep.Tick(net.Cycle())
	}
	deadline := net.Cycle() + *drain
	for net.Outstanding() > 0 && net.Cycle() < deadline {
		net.Step()
		rep.Tick(net.Cycle())
	}
	rep.Done(net.Cycle())

	withOut(*out, pr.WriteChromeTrace)
	withOut(*waveform, pr.WriteWaveform)
	withOut(*routers, pr.WriteRouterCSV)
	withOut(*heatmap, pr.WriteHeatmapCSV)
	withOut(*series, pr.WriteTimeSeriesCSV)

	t := pr.Totals()
	fmt.Fprintf(os.Stderr,
		"noxtrace: %s %dx%d %s @ %.0f MB/s/node: %d cycles, %d/%d packets delivered\n",
		arch, *width, *height, *pattern, *rate, net.Cycle(), net.Delivered(), net.Injected())
	fmt.Fprintf(os.Stderr,
		"noxtrace: %d events recorded (%d dropped by ring wrap): traversals=%d collisions=%d aborts=%d decodes=%d stalls=%d\n",
		pr.EventCount(), pr.Dropped(), t.Traversals, t.Collisions, t.Aborts, t.Decodes, t.CreditStalls)
	if net.Outstanding() > 0 {
		fmt.Fprintf(os.Stderr, "noxtrace: warning: %d packets undelivered at the drain limit\n", net.Outstanding())
	}
}
