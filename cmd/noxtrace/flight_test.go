package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// TestFlightDumpValidates drives a real failure — a replayable bit-flip
// fault campaign the delivery oracle catches — with the flight recorder
// armed the way every cmd tool arms it (BindChecker, no flags), then runs
// the dump through the same validator `noxtrace -validate` uses. This is
// the acceptance path: a checker trip must yield a loadable Perfetto trace
// with no operator action.
func TestFlightDumpValidates(t *testing.T) {
	arch := router.NoX
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		Dir: t.TempDir(), Label: "oracle-trip", PeriodNs: physical.ClockPeriodNs(arch),
	})
	topo := noc.Topology{Width: 4, Height: 4}
	// campaign runs the failing run under recorder r — the run's own, or
	// the replay's, whose network carries its probe. Hotspot contention
	// manufactures encoded flits for the bit-flips to corrupt; the seed
	// makes the campaign replayable, so the trip is deterministic.
	campaign := func(r *telemetry.Recorder) *network.Network {
		ck := check.New(check.All())
		r.BindChecker(ck)
		inj := fault.NewInjector(fault.Spec{Seed: 0xBADF00D, BitFlip: 0.02})
		net := network.New(network.Config{Topo: topo, Arch: arch, Check: ck, Fault: inj, Probe: r.Probe()})
		for round := 0; round < 20; round++ {
			for id := 1; id < topo.Nodes(); id++ {
				net.Inject(noc.NodeID(id), 0, 2, 0)
			}
			net.Step()
		}
		if err := net.DrainChecked(5000, 1000); err != nil {
			r.Trigger(net.Cycle(), "drain: "+err.Error())
		}
		net.CheckInvariants()
		return net
	}
	net := campaign(rec)
	defer net.Close()

	if !rec.Triggered() {
		t.Fatal("fault campaign produced no trigger — raise the bit-flip rate")
	}
	replay := func(rr *telemetry.Recorder) { campaign(rr).Close() }
	path, err := rec.Flush(replay, net.WriteDiagnostic)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if path == "" {
		t.Fatal("triggered recorder wrote no trace")
	}
	if err := validateTrace(path); err != nil {
		t.Errorf("auto-dumped flight trace failed validation: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	if n, err := parseTraceEvents(data); err != nil || n == 0 {
		t.Errorf("parseTraceEvents = %d, %v", n, err)
	}
}

// TestValidateMetrics exercises the -validate-metrics path the
// telemetry-smoke gate runs against a saved /metrics scrape.
func TestValidateMetrics(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "metrics.txt")
	if err := os.WriteFile(good, []byte("# HELP nox_cycles_total cycles\n# TYPE nox_cycles_total counter\nnox_cycles_total 42\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateMetrics(good); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}

	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateMetrics(empty); err == nil {
		t.Error("sample-free exposition accepted")
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("nox_cycles_total not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateMetrics(bad); err == nil {
		t.Error("malformed exposition accepted")
	}
}
