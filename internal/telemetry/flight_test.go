package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// xorTamper is the planted XOR-masking bug from the network fault tests: it
// flips one bit in every encoded flit on the wire, breaking the NoX decode
// bit-exactness identity, and refuses to account for the packets it corrupts
// (leaky), so the delivery oracle must catch it.
type xorTamper struct{}

func (xorTamper) TamperFlit(site int32, cycle int64, f *noc.Flit) bool {
	if f.Encoded {
		f.Raw ^= 1 << 17
	}
	return false
}
func (xorTamper) TamperCredits(site int32, cycle int64, n int) int { return n }
func (xorTamper) LinkStalled(site int32, cycle int64) bool         { return false }
func (xorTamper) BindSites(n int)                                  {}
func (xorTamper) CreditDelta(site int) int                         { return 0 }
func (xorTamper) Impacted(id uint64) bool                          { return false }
func (xorTamper) Leaky() bool                                      { return true }

// runXORScenario runs the checker negative-control workload — hotspot
// contention on a 4x4 NoX mesh with the XOR bug armed — against the given
// probe (nil for none) and checker. The simulator is deterministic, so two
// calls produce identical event streams; that is what the recorder's
// replay rests on.
func runXORScenario(pr *probe.Probe, ck *check.Checker) {
	topo := noc.Topology{Width: 4, Height: 4}
	n := network.New(network.Config{Topo: topo, Arch: router.NoX, Check: ck, Fault: xorTamper{}, Probe: pr})
	defer n.Close()
	for round := 0; round < 10; round++ {
		for id := 1; id < topo.Nodes(); id++ {
			n.Inject(noc.NodeID(id), 0, 1, 0)
		}
		n.Step()
	}
	_ = n.DrainChecked(5000, 1000)
	n.CheckInvariants()
}

// replayXORScenario is the XOR scenario's replay: a fresh checker, bound to
// the replay's recorder the way the run's was to its own.
func replayXORScenario(rr *telemetry.Recorder) {
	ck := check.New(check.All())
	rr.BindChecker(ck)
	runXORScenario(rr.Probe(), ck)
}

// TestFlightRecorderNegativeControl arms the flight recorder on a run with a
// planted XOR-masking bug and checks the failure-window dump is faithful:
// the replayed trace must byte-match a full-probe export of the same window
// from an identical run. If the replay dropped, reordered, or mis-windowed
// events, the bytes diverge.
func TestFlightRecorderNegativeControl(t *testing.T) {
	dumpsBefore := telemetry.FlightDumps()
	periodNs := physical.ClockPeriodNs(router.NoX)

	// Run 1: recorder armed via the checker observer, default window; the
	// run itself carries no probe.
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		Dir: t.TempDir(), Label: "negative-control", PeriodNs: periodNs,
	})
	ck := check.New(check.All())
	rec.BindChecker(ck)
	runXORScenario(nil, ck)

	if ck.Counts()[check.KindDecode] == 0 {
		t.Fatal("scenario did not produce decode violations — negative control is broken")
	}
	if !rec.Triggered() {
		t.Fatal("checker recorded violations but the recorder never triggered")
	}
	path, err := rec.Flush(replayXORScenario, nil)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if path == "" {
		t.Fatal("triggered recorder wrote no trace")
	}
	if telemetry.FlightDumps() <= dumpsBefore {
		t.Error("flight dump counter did not advance")
	}
	dumped, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}

	// Run 2: identical scenario captured by an unbounded full probe; export
	// exactly the window the recorder dumped.
	full := probe.New(probe.Config{RingEvents: 1 << 18, PeriodNs: periodNs})
	runXORScenario(full, check.New(check.All()))
	start, end := rec.Window()
	var want bytes.Buffer
	if err := full.WriteChromeTraceWindow(&want, start, end); err != nil {
		t.Fatalf("WriteChromeTraceWindow: %v", err)
	}
	if !bytes.Equal(dumped, want.Bytes()) {
		t.Errorf("flight dump diverges from full-probe window [%d,%d]: dump %d bytes, full %d bytes",
			start, end, len(dumped), want.Len())
	}

	// The report rides along with the trace.
	report, err := os.ReadFile(path[:len(path)-len(".trace.json")] + ".report.txt")
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if !bytes.Contains(report, []byte("check violation")) {
		t.Errorf("report does not name the trigger:\n%s", report)
	}
}

// TestFlightReplayDiverged plants a replay that does not reproduce the run:
// the XOR scenario without its bug never trips. Flush must still write the
// dump, say in the report that the replay diverged, and return an error; a
// replay that trips at another cycle diverges too.
func TestFlightReplayDiverged(t *testing.T) {
	for _, tc := range []struct {
		name   string
		replay func(*telemetry.Recorder)
		want   string
	}{
		{"never", func(rr *telemetry.Recorder) {
			ck := check.New(check.All())
			rr.BindChecker(ck)
			n := network.New(network.Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Check: ck, Probe: rr.Probe()})
			defer n.Close()
			n.Inject(1, 0, 1, 0)
			_ = n.DrainChecked(5000, 1000)
			n.CheckInvariants()
		}, "never tripped"},
		{"elsewhere", func(rr *telemetry.Recorder) {
			replayXORScenario(rr)
			if !rr.Triggered() {
				t.Fatal("the XOR scenario's replay did not trip")
			}
		}, "tripped at cycle"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir(), Label: "diverged",
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			rec.Trigger(3, "a trigger no replay reproduces")
			path, err := rec.Flush(tc.replay, nil)
			if err == nil || !strings.Contains(err.Error(), "replay diverged") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Flush error %v, want a divergence that %s", err, tc.want)
			}
			report, rerr := os.ReadFile(strings.TrimSuffix(path, ".trace.json") + ".report.txt")
			if rerr != nil {
				t.Fatalf("no report: %v", rerr)
			}
			if !bytes.Contains(report, []byte("replay diverged: ")) {
				t.Errorf("report does not say the replay diverged:\n%s", report)
			}
		})
	}
}

// TestFlightRecorderRingWrap pins the probe ring a flight dump is cut from.
// Traffic wraps a deliberately tiny ring many times over: retained events
// stay chronological, EventsWindow agrees with a manual filter over Events
// for arbitrary windows, and a window export after heavy wrap is still a
// parsable non-empty trace. A horizon stops the ring: nothing at or past it
// is stored or counted, so a window ending before it keeps its events.
func TestFlightRecorderRingWrap(t *testing.T) {
	drive := func(pr *probe.Probe) {
		net := network.New(network.Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Probe: pr})
		defer net.Close()
		rng := sim.NewRNG(7)
		nodes := net.Topology().Nodes()
		for cyc := 0; cyc < 2000; cyc++ {
			src := noc.NodeID(rng.Intn(nodes))
			dst := noc.NodeID(rng.Intn(nodes))
			if src != dst {
				net.Inject(src, dst, 2, 0)
			}
			net.Step()
		}
	}
	pr := probe.New(probe.Config{RingEvents: 256})
	drive(pr)

	if pr.Dropped() == 0 {
		t.Fatalf("ring never wrapped: %d events in a 256-slot ring", pr.EventCount())
	}
	all := pr.Events()
	if len(all) != 256 {
		t.Fatalf("wrapped ring retained %d events, want 256", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Cycle < all[i-1].Cycle {
			t.Fatalf("retained events out of order at %d: cycle %d after %d", i, all[i].Cycle, all[i-1].Cycle)
		}
	}

	lo, hi := all[0].Cycle, all[len(all)-1].Cycle
	windows := [][2]int64{
		{lo, hi},                         // everything retained
		{lo - 100, hi + 100},             // superset
		{lo + (hi-lo)/4, hi - (hi-lo)/4}, // interior
		{hi + 1, hi + 50},                // past the end: empty
		{0, lo - 1},                      // overwritten prefix: empty
	}
	for _, w := range windows {
		got := pr.EventsWindow(w[0], w[1])
		var want int
		for _, ev := range all {
			if ev.Cycle >= w[0] && ev.Cycle <= w[1] {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("EventsWindow[%d,%d] returned %d events, manual filter %d", w[0], w[1], len(got), want)
			continue
		}
		for i, ev := range got {
			if ev.Cycle < w[0] || ev.Cycle > w[1] {
				t.Errorf("EventsWindow[%d,%d] event %d at cycle %d outside window", w[0], w[1], i, ev.Cycle)
			}
		}
	}

	// A window export after heavy wrap still yields a valid, non-empty trace.
	var buf bytes.Buffer
	if err := pr.WriteChromeTraceWindow(&buf, lo, hi); err != nil {
		t.Fatalf("WriteChromeTraceWindow after wrap: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("post-wrap export is not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("post-wrap export holds no events")
	}

	// The same run under a horizon: the ring stops at it, and the window
	// just before it matches the unbounded run's.
	const horizon = 1000
	full := probe.New(probe.Config{RingEvents: 1 << 18})
	drive(full)
	bounded := probe.New(probe.Config{RingEvents: 256, Horizon: horizon})
	drive(bounded)
	var want int
	for _, ev := range full.Events() {
		if ev.Cycle < horizon {
			want++
		}
	}
	if full.Dropped() != 0 {
		t.Fatalf("the unbounded reference ring dropped %d events", full.Dropped())
	}
	if bounded.EventCount() != uint64(want) {
		t.Fatalf("horizon %d: bounded ring counted %d events, want %d", horizon, bounded.EventCount(), want)
	}
	kept := bounded.Events()
	if last := kept[len(kept)-1].Cycle; last >= horizon {
		t.Fatalf("bounded ring holds an event at cycle %d, past horizon %d", last, horizon)
	}
	start := kept[0].Cycle + 1 // the first retained cycle may be partly overwritten
	if got, want := bounded.EventsWindow(start, horizon-1), full.EventsWindow(start, horizon-1); !slices.Equal(got, want) {
		t.Errorf("window [%d,%d] below the horizon: %d events, unbounded run %d", start, horizon-1, len(got), len(want))
	}
}

// TestFlightRetention pins the dump-directory cap: with Keep=3, flushing
// into a directory that already holds five older stems must leave exactly
// three — the fresh dump plus the two youngest survivors — and must take
// each evicted stem's report with it.
func TestFlightRetention(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		stem := filepath.Join(dir, fmt.Sprintf("flight-old%d", i))
		for _, suffix := range []string{".trace.json", ".report.txt"} {
			if err := os.WriteFile(stem+suffix, []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Distinct mtimes, oldest first, so eviction order is deterministic.
		ts := old.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(stem+".trace.json", ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: "fresh", Keep: 3})
	rec.Trigger(100, "retention test")
	path, err := rec.Flush(func(rr *telemetry.Recorder) { rr.Trigger(100, "retention test") }, nil)
	if err != nil || path == "" {
		t.Fatalf("Flush: %q, %v", path, err)
	}

	traces, err := filepath.Glob(filepath.Join(dir, "flight-*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stems []string
	for _, tr := range traces {
		stems = append(stems, strings.TrimSuffix(tr, ".trace.json"))
	}
	sort.Strings(stems)
	want := []string{
		filepath.Join(dir, "flight-fresh"),
		filepath.Join(dir, "flight-old3"),
		filepath.Join(dir, "flight-old4"),
	}
	if !slices.Equal(stems, want) {
		t.Fatalf("retained stems %v, want %v", stems, want)
	}
	// Evicted stems lose every file, survivors keep theirs.
	if _, err := os.Stat(filepath.Join(dir, "flight-old0.report.txt")); !os.IsNotExist(err) {
		t.Errorf("evicted stem's report survives: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "flight-old4.report.txt")); err != nil {
		t.Errorf("surviving stem lost its report: %v", err)
	}
}

// TestRecorderSteadyStateZeroAllocs proves an armed recorder attaches
// nothing to the run it watches: wired the way the drivers wire it (its
// probe slot, its checker observer), the network carries no probe, and
// stepping it loaded allocates nothing. This is the property that justifies
// arming it by default.
func TestRecorderSteadyStateZeroAllocs(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{
		Dir: t.TempDir(), Label: "allocs", PeriodNs: physical.ClockPeriodNs(router.NoX),
	})
	ck := check.New(check.All())
	rec.BindChecker(ck)
	net := network.New(network.Config{Arch: router.NoX, Probe: rec.Probe(), Check: ck})
	defer net.Close()
	if net.Probe() != nil {
		t.Fatal("an armed recorder attached a probe to the network")
	}

	rng := sim.NewRNG(1)
	topo := net.Topology()
	for n := 0; n < topo.Nodes(); n++ {
		for k := 0; k < 4; k++ {
			dst := noc.NodeID(rng.Intn(topo.Nodes()))
			if dst != noc.NodeID(n) {
				net.Inject(noc.NodeID(n), dst, 64, 0)
			}
		}
	}
	// Warm the arenas and reach a flowing steady state.
	for i := 0; i < 200; i++ {
		net.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { net.Step() }); avg != 0 {
		t.Errorf("steady-state Step with armed recorder allocates %.2f/op, want 0", avg)
	}
	if rec.Triggered() {
		t.Errorf("a healthy run tripped the recorder")
	}
}
