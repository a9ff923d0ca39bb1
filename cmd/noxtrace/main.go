// Command noxtrace runs a short probed simulation and exports the
// flit-level event stream and per-router metrics: a Chrome trace-event JSON
// file (load it at https://ui.perfetto.dev or chrome://tracing; one process
// per router, one track per port), a textual waveform, per-router and
// heatmap CSVs, and the periodic time series.
//
// The run is one harness.RunSynthetic cell under a probe: the library's
// warm-up, -measure cycles of traffic, then the drain. The ring keeps the
// most recent events, the steady state.
//
// Usage:
//
//	noxtrace -arch nox -width 4 -height 4 -rate 1800 -out trace.json
//	noxtrace -waveform - -measure 200 -rate 2500     # waveform to stdout
//	noxtrace -routers-csv routers.csv -heatmap-csv heat.csv -timeseries-csv ts.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// writeOut opens path ('-' = stdout, "" = skip) and runs write against it.
func writeOut(path string, write func(w io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
		measure  = flag.Int64("measure", 2000, "measured cycles of traffic, after the default warm-up and before the drain")
		drain    = flag.Int64("drain", 20000, "drain cycle limit after traffic stops")
		ring     = flag.Int("ring", 1<<18, fmt.Sprintf("event ring capacity, at most %d (rounded up to a power of two; the ring keeps the most recent events)", probe.MaxRingEvents))
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
			cli.Fail(err)
		}
		return
	}
	if *valMet != "" {
		if err := validateMetrics(*valMet); err != nil {
			cli.Fail(err)
		}
		return
	}

	// A zero mesh side, packet length or window would select the library's
	// default (an 8x8 mesh, 1 flit, 10000 measured or 30000 drain cycles),
	// not what the flag says.
	for _, f := range []struct {
		name   string
		v, min int64
	}{{"width", int64(*width), 1}, {"height", int64(*height), 1}, {"flits", int64(*flits), 1},
		{"measure", *measure, 1}, {"drain", *drain, 1}, {"ring", int64(*ring), 0}, {"sample", *sample, 0}} {
		if f.v < f.min {
			cli.Fail(fmt.Errorf("-%s must be >= %d (got %d)", f.name, f.min, f.v))
		}
	}
	if *ring > probe.MaxRingEvents {
		cli.Fail(fmt.Errorf("-ring %d: above the cap of %d events (probe.MaxRingEvents)", *ring, probe.MaxRingEvents))
	}
	arch, err := router.ArchByName(*archName)
	if err != nil {
		cli.Fail(err)
	}

	pr := probe.New(probe.Config{RingEvents: *ring, SampleEvery: *sample, PeriodNs: physical.ClockPeriodNs(arch)})
	res, err := harness.RunSynthetic(harness.SyntheticConfig{
		Arch:          arch,
		Topo:          noc.Topology{Width: *width, Height: *height},
		Pattern:       *pattern,
		RateMBps:      *rate,
		PacketFlits:   *flits,
		MeasureCycles: *measure,
		DrainCycles:   *drain,
		Seed:          *seed,
		Probe:         pr,
		Progress:      sess.Sampler(),
	})
	if err != nil {
		cli.Fail(err)
	}

	withOut := func(path string, write func(io.Writer) error) {
		if err := writeOut(path, write); err != nil {
			cli.Fail(err)
		}
	}
	withOut(*out, pr.WriteChromeTrace)
	withOut(*waveform, pr.WriteWaveform)
	withOut(*routers, pr.WriteRouterCSV)
	withOut(*heatmap, pr.WriteHeatmapCSV)
	withOut(*series, pr.WriteTimeSeriesCSV)

	t := pr.Totals()
	fmt.Fprintf(os.Stderr,
		"noxtrace: %s %dx%d %s @ %.0f MB/s/node: %d measured cycles, %d/%d packets delivered, mean latency %.2f ns\n",
		arch, *width, *height, *pattern, *rate, *measure, t.Delivers, t.Injects, res.MeanLatencyNs)
	fmt.Fprintf(os.Stderr,
		"noxtrace: %d events recorded (%d dropped by ring wrap): traversals=%d collisions=%d aborts=%d decodes=%d stalls=%d\n",
		pr.EventCount(), pr.Dropped(), t.Traversals, t.Collisions, t.Aborts, t.Decodes, t.CreditStalls)
	if n := t.Injects - t.Delivers; n > 0 {
		fmt.Fprintf(os.Stderr, "noxtrace: warning: %d packets undelivered at the end of the drain\n", n)
	}
}
