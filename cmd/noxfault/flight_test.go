package main

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// TestFlightDumpOfEarlyTrip is the campaign whose dumps used to come out
// empty: on a loaded 8x8 mesh the bit-flips trip the checker within a few
// dozen cycles, and the cell then runs on for more events than any probe
// ring here holds — the 64Ki ring the recorder used to attach, and the
// replay's own — so only a ring that stops at the trigger keeps the window.
// The dump must hold the window's events and byte-match a full-probe
// export of [trigger-W+1, trigger], and a sharded campaign must write the
// same dump.
func TestFlightDumpOfEarlyTrip(t *testing.T) {
	p := params{
		topo: noc.Topology{Width: 8, Height: 8}, bufferDepth: 4, shards: 1,
		cycles: 700, load: 0.15, multi: 0.25, drain: 20000, watchdog: 4000,
		template: fault.Spec{Seed: 0xF001, BitFlip: 0.001, StallCycles: 8},
	}
	// dump runs campaign 0 at the given shard count and returns its
	// recorder and the trace it dumped.
	dump := func(shards int) (*telemetry.Recorder, []byte) {
		dir := t.TempDir()
		var rec *telemetry.Recorder
		q := p
		q.shards = shards
		q.newRecorder = func(label string) *telemetry.Recorder {
			rec = telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: label,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			return rec
		}
		if c := run(router.NoX, 0, q); c.out != outDetected {
			t.Fatalf("campaign outcome %v, want detected", c.out)
		}
		data, err := os.ReadFile(filepath.Join(dir, "flight-fault-NoX-c0.trace.json"))
		if err != nil {
			t.Fatalf("no dump: %v", err)
		}
		return rec, data
	}
	rec, got := dump(1)
	start, end := rec.Window()
	if end > 100 {
		t.Fatalf("trigger at cycle %d: the campaign no longer trips early", end)
	}

	// The reference: the same campaign with a full probe on the live run.
	c := &cell{arch: router.NoX, spec: p.template}
	c.spec.Seed = campaignSeed(p.template.Seed, 0)
	full := probe.New(probe.Config{RingEvents: 1 << 20, PeriodNs: physical.ClockPeriodNs(router.NoX)})
	net := buildCell(c, p, check.New(check.All()), fault.NewInjector(c.spec), full)
	driveCell(net, c, p, nil)
	_ = net.DrainChecked(p.drain, p.watchdog)
	net.Close()
	if full.Dropped() != 0 {
		t.Fatalf("the full probe dropped %d events", full.Dropped())
	}
	window := full.EventsWindow(start, end)
	if len(window) == 0 {
		t.Fatal("the failure window holds no events")
	}
	// 1<<18 is probe.Config's default ring, the one the replay allocates.
	if after := full.EventCount() - uint64(len(full.EventsWindow(0, end))); after <= 1<<18 {
		t.Fatalf("only %d events follow the trigger: the replay's ring would not have wrapped", after)
	}
	var want bytes.Buffer
	if err := full.WriteChromeTraceWindow(&want, start, end); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("dump of [%d,%d] diverges from the full-probe export (%d vs %d bytes, %d events in the window)",
			start, end, len(got), want.Len(), len(window))
	}
	if _, sharded := dump(4); !bytes.Equal(sharded, got) {
		t.Error("the sharded campaign's dump differs from the serial one's")
	}
}

// TestFlightReplayDivergence plants a divergence: a campaign's cell
// replayed without its bit-flips never trips, so its dump must say the
// replay diverged and Flush must fail, while the faithful replay of the
// same trigger succeeds.
func TestFlightReplayDivergence(t *testing.T) {
	p := params{
		topo: noc.Topology{Width: 4, Height: 4}, bufferDepth: 4, shards: 1,
		cycles: 800, load: 0.05, multi: 0.25, drain: 20000, watchdog: 4000,
		template: fault.Spec{Seed: 0xF001, BitFlip: 0.001, StallCycles: 8},
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var rec *telemetry.Recorder
	q := p
	q.newRecorder = func(label string) *telemetry.Recorder {
		rec = telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir(), Label: label, Logger: quiet})
		return rec
	}
	c := run(router.NoX, 0, q)
	if !rec.Triggered() {
		t.Fatalf("campaign (%v) did not trip its recorder", c.out)
	}
	_, trigger := rec.Window()

	flush := func(replay func(*telemetry.Recorder)) error {
		r := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir(), Label: "again", Logger: quiet})
		r.Trigger(trigger, "the campaign's trigger")
		_, err := r.Flush(replay, nil)
		return err
	}
	if err := flush(func(rr *telemetry.Recorder) { replayCell(&c, p, rr) }); err != nil {
		t.Fatalf("the faithful replay: %v", err)
	}
	clean := c
	clean.spec.BitFlip = 0
	err := flush(func(rr *telemetry.Recorder) { replayCell(&clean, p, rr) })
	if err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("the fault-free replay: Flush error %v, want a divergence", err)
	}
}
