package main

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/network"
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
		if out, _ := run(campaign(router.NoX, 0, q), q).outcome(); out != outDetected {
			t.Fatalf("campaign outcome %v, want detected", out)
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
	j := campaign(router.NoX, 0, p)
	full := probe.New(probe.Config{RingEvents: 1 << 20, PeriodNs: physical.ClockPeriodNs(router.NoX)})
	net := buildCell(j, p, check.New(check.All()), fault.NewInjector(j.spec), nil, full)
	driveCell(net, j, p, nil)
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
	c := run(campaign(router.NoX, 0, q), q)
	if !rec.Triggered() {
		out, _ := c.outcome()
		t.Fatalf("campaign (%v) did not trip its recorder", out)
	}
	_, trigger := rec.Window()

	flush := func(replay func(*telemetry.Recorder)) error {
		r := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir(), Label: "again", Logger: quiet})
		r.Trigger(trigger, "the campaign's trigger")
		_, err := r.Flush(replay, nil)
		return err
	}
	if err := flush(func(rr *telemetry.Recorder) { replayCell(c.job, p, rr) }); err != nil {
		t.Fatalf("the faithful replay: %v", err)
	}
	clean := c.job
	clean.spec.BitFlip = 0
	err := flush(func(rr *telemetry.Recorder) { replayCell(clean, p, rr) })
	if err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("the fault-free replay: Flush error %v, want a divergence", err)
	}
}

// TestDegradeFlightDump: a degrade cell that wedges in its drain dumps and
// replays like a campaign cell — a dump that does not diverge, and the same
// trace from a sharded run — while a healthy cell, whose scheduled kill
// reconfigures the network, writes none.
func TestDegradeFlightDump(t *testing.T) {
	p := params{
		topo: noc.Topology{Width: 4, Height: 4}, bufferDepth: 4, shards: 1,
		cycles: 800, load: 0.3, multi: 0.25, drain: 200, watchdog: 50,
		template:   fault.Spec{Seed: 0xF001},
		retransmit: &network.RetransmitConfig{Timeout: 96, Retries: 4},
	}
	seq := degradeLinks(p.topo, p.template.Seed)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	// dump runs the cell with one dead link at killAt and returns it with
	// the directory its recorder dumps into.
	dump := func(q params, killAt int64) (cell, string) {
		dir := t.TempDir()
		q.newRecorder = func(label string) *telemetry.Recorder {
			return telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: label, Logger: quiet})
		}
		return run(degradeJob(router.NoX, 1, seq, killAt, q), q), dir
	}
	read := func(dir, ext string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, "flight-degrade-NoX-links1."+ext))
		if err != nil {
			t.Fatalf("no dump: %v", err)
		}
		return data
	}

	c, dir := dump(p, 0)
	if ok, why := c.accounted(); ok || !strings.HasPrefix(why, "wedged: ") {
		t.Fatalf("cell ok=%v (%s), want wedged", ok, why)
	}
	if report := read(dir, "report.txt"); bytes.Contains(report, []byte("replay diverged")) {
		t.Errorf("the dump's replay diverged:\n%s", report)
	}
	sharded := p
	sharded.shards = 4
	if _, dir4 := dump(sharded, 0); !bytes.Equal(read(dir4, "trace.json"), read(dir, "trace.json")) {
		t.Error("the sharded cell's dump differs from the serial one's")
	}

	healthy := p
	healthy.load, healthy.drain, healthy.watchdog = 0.04, 10000, 3000
	c, dir = dump(healthy, 400)
	if ok, why := c.accounted(); !ok || c.epochs == 0 {
		t.Fatalf("healthy cell ok=%v (%s) epochs=%d, want ok after a reconfiguration", ok, why, c.epochs)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("the healthy cell wrote %d dump files", len(files))
	}
}

// TestUndetectedLossTrips plants a loss the checker misses — a packet its
// ledger saw injected that the network never carried, on a checker whose
// delivery oracle is off, so no lost-packet violation records it — and
// requires drainCell to latch the recorder at the drain's end cycle.
func TestUndetectedLossTrips(t *testing.T) {
	p := params{topo: noc.Topology{Width: 4, Height: 4}, bufferDepth: 4, shards: 1, drain: 2000, watchdog: 500}
	var end int64
	// drain runs the planted network to its drain's end under rec.
	drain := func(rec *telemetry.Recorder) error {
		ck := check.New(check.Config{Conservation: true, Protocol: true})
		rec.BindChecker(ck)
		net, err := network.Build(network.Config{Topo: p.topo, Arch: router.NoX, BufferDepth: 4, Check: ck, Probe: rec.Probe()})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		net.Inject(0, 5, 4, 0)
		ck.OnInject(0, 1<<40)
		err = drainCell(net, ck, p, rec)
		end = net.Cycle()
		return err
	}
	dir := t.TempDir()
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: "loss",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := drain(rec); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !rec.Triggered() {
		t.Fatal("a drained network missing a packet did not trip the recorder")
	}
	if _, at := rec.Window(); at != end || end == 0 {
		t.Errorf("tripped at cycle %d, want the drain's end %d", at, end)
	}
	if _, err := rec.Flush(func(rr *telemetry.Recorder) { _ = drain(rr) }, nil); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(dir, "flight-loss.report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report, []byte("reason: undetected loss: 1 packets missing\n")) {
		t.Errorf("dump report:\n%s", report)
	}
}

// TestDumpNoticesInCellOrder: the flight-dump notices of a campaign come out
// in cell order, whichever pool worker finishes first. Two cells trip on a
// 2-worker pool, and the first is held back until the second has written its
// dump, so it finishes last.
func TestDumpNoticesInCellOrder(t *testing.T) {
	p := params{
		topo: noc.Topology{Width: 4, Height: 4}, bufferDepth: 4, shards: 1,
		cycles: 800, load: 0.05, multi: 0.25, drain: 20000, watchdog: 4000,
		template: fault.Spec{Seed: 0xF001, BitFlip: 0.001, StallCycles: 8},
	}
	dir := t.TempDir()
	var log bytes.Buffer // slog's handler serializes the workers' writes
	logger := slog.New(slog.NewTextHandler(&log, nil))
	second := filepath.Join(dir, "flight-fault-NoX-c1.report.txt")
	p.newRecorder = func(label string) *telemetry.Recorder {
		if strings.HasSuffix(label, "-c0") {
			for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if _, err := os.Stat(second); err == nil {
					break
				}
			}
		}
		return telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: label, Logger: logger})
	}
	if err := runCampaignMode(io.Discard, []router.Arch{router.NoX}, p, 2, 0, exp.NewPool(2), ""); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range strings.Split(log.String(), "\n") {
		if strings.Contains(line, "dumped failure window") {
			order = append(order, line[strings.Index(line, "flight-fault-"):][:len("flight-fault-NoX-c0")])
		}
	}
	if len(order) != 2 || order[0] != "flight-fault-NoX-c0" || order[1] != "flight-fault-NoX-c1" {
		t.Errorf("dump notices %q, want c0 then c1:\n%s", order, log.String())
	}
}
