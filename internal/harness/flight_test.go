package harness

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// handRecorder returns a flight recorder triggered by hand at cycle, before
// the run it watches starts: the run's epilogue must then replay the run and
// dump the window ending at cycle. The replay's recorder is triggered by
// hand the same way, so the replay reproduces the trigger.
func handRecorder(t *testing.T, dir string, cycle int64) *telemetry.Recorder {
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: "hand", Window: 300,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	rec.Trigger(cycle, "triggered by hand")
	replayStarts = func(rr *telemetry.Recorder) { rr.Trigger(cycle, "triggered by hand") }
	t.Cleanup(func() { replayStarts = func(*telemetry.Recorder) {} })
	return rec
}

// checkDump compares the dump rec wrote into dir against full, a full probe
// of the same run: the trace must byte-match full's export of the window.
func checkDump(t *testing.T, dir string, rec *telemetry.Recorder, full *probe.Probe) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, "flight-hand.trace.json"))
	if err != nil {
		t.Fatalf("no dump: %v", err)
	}
	if full.Dropped() != 0 {
		t.Fatalf("the full probe dropped %d events", full.Dropped())
	}
	start, end := rec.Window()
	var want bytes.Buffer
	if err := full.WriteChromeTraceWindow(&want, start, end); err != nil {
		t.Fatal(err)
	}
	if len(full.EventsWindow(start, end)) == 0 {
		t.Fatalf("window [%d,%d] holds no events: the comparison would be vacuous", start, end)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("replayed dump of [%d,%d] diverges from the full-probe export (%d vs %d bytes)", start, end, len(got), want.Len())
	}
	report, err := os.ReadFile(filepath.Join(dir, "flight-hand.report.txt"))
	if err != nil || bytes.Contains(report, []byte("replay diverged")) {
		t.Errorf("report (%v) says the replay did not reproduce the trigger:\n%s", err, report)
	}
}

// fullProbe is a probe large enough to keep every event of these runs.
func fullProbe(periodNs float64) *probe.Probe {
	return probe.New(probe.Config{RingEvents: 1 << 21, PeriodNs: periodNs})
}

// TestFlightReplayMatchesFullProbe triggers a recorder by hand at a fixed
// cycle in each driver that arms one — a synthetic point (cold, sharded and
// warm-started), an application-trace replay (sharded, and with its class
// networks on their own goroutines) and a future-study point — and requires
// the replayed dump to equal a full-probe export of the same window.
func TestFlightReplayMatchesFullProbe(t *testing.T) {
	const trigger = 1700
	synth := func() SyntheticConfig {
		cfg := fastCfg("uniform", 1500)
		cfg.Arch = router.NoX
		cfg.Topo = noc.Topology{Width: 4, Height: 4}
		cfg.MeasureCycles = 1500
		return cfg
	}
	// fullSynthetic is the reference: the cold serial run under a full probe.
	fullSynthetic := func(t *testing.T, cfg SyntheticConfig) *probe.Probe {
		cfg.Probe, cfg.Shards = fullProbe(physical.ClockPeriodNs(cfg.Arch)), 1
		if _, err := RunSynthetic(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Probe
	}
	for _, shards := range []int{1, 2} {
		t.Run(map[int]string{1: "synthetic", 2: "synthetic-sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			var rec *telemetry.Recorder
			cfg := synth()
			cfg.Shards = shards
			cfg.NewRecorder = func(string) *telemetry.Recorder { rec = handRecorder(t, dir, trigger); return rec }
			if _, err := RunSynthetic(cfg); err != nil {
				t.Fatal(err)
			}
			checkDump(t, dir, rec, fullSynthetic(t, synth()))
		})
	}
	w, err := trace.WorkloadByName("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(w, noc.Topology{Width: 4, Height: 4}, 8000, 7)
	fullApp := func() *probe.Probe {
		full := fullProbe(physical.ClockPeriodNs(router.NoX))
		RunApp(AppConfig{Arch: router.NoX, Trace: tr, Shards: 1, Probe: full})
		return full
	}
	t.Run("app", func(t *testing.T) {
		dir := t.TempDir()
		rec := handRecorder(t, dir, trigger)
		RunApp(AppConfig{Arch: router.NoX, Trace: tr, Shards: 2, Recorder: rec})
		checkDump(t, dir, rec, fullApp())
	})
	t.Run("app-concurrent", func(t *testing.T) {
		// Serial, unprobed and on two CPUs, the live replay steps each class
		// network on its own goroutine; its dump replays in lockstep.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		dir := t.TempDir()
		rec := handRecorder(t, dir, trigger)
		RunApp(AppConfig{Arch: router.NoX, Trace: tr, Shards: 1, Recorder: rec})
		checkDump(t, dir, rec, fullApp())
	})
	t.Run("future", func(t *testing.T) {
		cfg := FutureConfig{Kind: CMesh4x4, Arch: router.NoX, RateMBps: 600,
			WarmupCycles: 600, MeasureCycles: 1500, DrainCycles: 4000, Shards: 2}
		dir := t.TempDir()
		rec := handRecorder(t, dir, trigger)
		run := cfg
		run.Recorder = rec
		if _, err := RunFuture(run); err != nil {
			t.Fatal(err)
		}
		full := cfg.synthetic()
		full.Probe, full.Shards = fullProbe(cfg.Kind.Datapath().ClockPeriodNs(cfg.Arch)), 1
		if _, err := RunSynthetic(full); err != nil {
			t.Fatal(err)
		}
		checkDump(t, dir, rec, full.Probe)
	})
}
