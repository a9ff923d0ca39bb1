package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/router"
)

// Sparse-regime equivalence suite: the harness's sparse accelerations
// (arrival lookahead, idle fast-forward) are a performance mode only — at
// light load, where they earn their speedup, every observable byte must
// match the Eager harness that steps every main-loop cycle. The kernel's
// parking underneath is pinned at network level against the oracle, the
// eager reference stepper (internal/network TestQuiescenceEquivalence*).
// The rates here sit at roughly 1% and 5% of per-node saturation
// bandwidth, the regime where almost every cycle is quiescent for almost
// every component.

var sparseRates = []float64{40, 200}

// sparseCfg is a light-load point with a measurement window long enough to
// cross many park/wake transitions.
func sparseCfg(pattern string, rate float64) SyntheticConfig {
	return SyntheticConfig{
		Pattern:       pattern,
		RateMBps:      rate,
		WarmupCycles:  1000,
		MeasureCycles: 3000,
		DrainCycles:   12000,
	}
}

// sparseRun executes one checked run — probed when serial — and returns
// its three comparable byte surfaces: the RunResult dump plus rendered CSV
// row, the complete Chrome probe trace (empty for a sharded run: a probed
// network runs serially), and the invariant checker's report.
func sparseRun(t *testing.T, cfg SyntheticConfig) (results, trace, report string) {
	t.Helper()
	if cfg.Shards <= 1 {
		cfg.Probe = probe.New(probe.Config{RingEvents: 1 << 20, PeriodNs: datapath(cfg.concentration).ClockPeriodNs(cfg.Arch)})
	}
	cfg.Check = check.New(check.Config{})
	res, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tb, rb bytes.Buffer
	if cfg.Probe != nil {
		if err := cfg.Probe.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Check.WriteReport(&rb)
	csv := SweepCSV(cfg.Pattern, []SweepPoint{{
		RateMBps: cfg.RateMBps,
		Results:  map[router.Arch]RunResult{cfg.Arch: res},
	}})
	return fmt.Sprintf("%+v", res) + "\n" + csv, tb.String(), rb.String()
}

// checkSparse runs cfg on the look-ahead path and on the Eager harness and
// requires the two byte surfaces of sparseRun to match.
func checkSparse(t *testing.T, cfg SyntheticConfig) {
	t.Helper()
	ref := cfg
	ref.Eager = true
	wantRes, wantTrace, wantReport := sparseRun(t, ref)
	gotRes, gotTrace, gotReport := sparseRun(t, cfg)
	if gotRes != wantRes {
		t.Errorf("results diverged from the Eager harness\ngot:\n%s\nwant:\n%s", gotRes, wantRes)
	}
	if gotTrace != wantTrace {
		t.Errorf("probe trace diverged from the Eager harness (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
	if gotReport != wantReport {
		t.Errorf("checker report diverged from the Eager harness\ngot:\n%s\nwant:\n%s", gotReport, wantReport)
	}
}

// TestSparseEquivalenceSerialSharded pins byte-identity between the Eager
// harness (no lookahead, no fast-forward) and the sparse fast path, for
// every architecture at shard counts 1 and 4 and both sparse rates —
// RunResult, rendered CSV and checker report, plus the full probe trace on
// the serial legs.
func TestSparseEquivalenceSerialSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sparse equivalence matrix is slow")
	}
	for _, arch := range router.Archs {
		for _, shards := range []int{1, 4} {
			for _, rate := range sparseRates {
				arch, shards, rate := arch, shards, rate
				t.Run(fmt.Sprintf("%s/shards%d/rate%g", arch, shards, rate), func(t *testing.T) {
					t.Parallel()
					cfg := sparseCfg("uniform", rate)
					cfg.Arch = arch
					cfg.Shards = shards
					checkSparse(t, cfg)
				})
			}
		}
	}
}

// TestIdleSkipLandsOnWarmupBoundary pins the idle jump's one boundary: the
// main loop must run cycle WarmupCycles, where injectCycle opens the
// measurement window, so an idle network's jump from before it stops on it,
// and an idle network standing on it does not jump at all. A jump across it
// would bill the warm-up's events to the window.
func TestIdleSkipLandsOnWarmupBoundary(t *testing.T) {
	m, err := prepareSynthetic(SyntheticConfig{Pattern: "uniform", WarmupCycles: 100, MeasureCycles: 400})
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.Build(m.netConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	m.attach(net) // at rate 0 no source has an arrival in the window
	net.Step()    // a fresh network's components park on their first step
	for _, tc := range []struct{ at, want int64 }{{1, 99}, {60, 40}, {100, 0}, {101, 399}} {
		net.FastForwardIdle(tc.at - net.Cycle())
		if got := m.idleSkip(); got != tc.want {
			t.Errorf("idle at cycle %d: jump %d cycles, want %d", tc.at, got, tc.want)
		}
	}
}

// TestSparseEquivalenceIdleWarmup is a long, idle-heavy cell (10 MB/s/node
// uniform on 4x4, a few dozen packets in the window) whose network goes idle
// on the step of the last warm-up cycle, so the look-ahead's loop stands idle
// on cycle WarmupCycles. It must not jump from there: that cycle's
// injectCycle opens the measurement window. Every architecture's RunResult,
// window counters included, must match the Eager run's.
func TestSparseEquivalenceIdleWarmup(t *testing.T) {
	const warmup = 2118 // an idle onset of this cell on every architecture
	for _, arch := range router.Archs {
		run := func(eager bool) (RunResult, []probe.Sample) {
			cfg := SyntheticConfig{Topo: noc.Topology{Width: 4, Height: 4}, Pattern: "uniform", RateMBps: 10, Arch: arch,
				WarmupCycles: warmup, MeasureCycles: 4000, DrainCycles: 12000, Eager: eager,
				Probe: probe.New(probe.Config{SampleEvery: 1, RingEvents: 1 << 10})}
			res, err := RunSynthetic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, cfg.Probe.Samples()
		}
		want, samples := run(true)
		// The Eager run samples every cycle: sample c is the active count
		// after cycle c.
		if busy, idle := samples[warmup-2], samples[warmup-1]; busy.Cycle != warmup-2 || busy.ActiveComponents == 0 || idle.ActiveComponents != 0 {
			t.Fatalf("%s: %d active after cycle %d and %d after %d: the network no longer goes idle on the warm-up's last step",
				arch, busy.ActiveComponents, busy.Cycle, idle.ActiveComponents, idle.Cycle)
		}
		if got, _ := run(false); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("%s: results diverged from the Eager harness\ngot:  %+v\nwant: %+v", arch, got, want)
		}
	}
}

// TestSparseEquivalenceBursty covers the time-varying source the uniform
// matrix cannot: Pareto-burst (self-similar) traffic alternates dense
// bursts with long quiescent gaps, crossing the park/wake edge and the
// idle fast-forward on every gap.
func TestSparseEquivalenceBursty(t *testing.T) {
	if testing.Short() {
		t.Skip("sparse bursty equivalence is slow")
	}
	for _, arch := range []router.Arch{router.NoX, router.NonSpec} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			t.Parallel()
			cfg := sparseCfg("selfsimilar", 120)
			cfg.Arch = arch
			checkSparse(t, cfg)
		})
	}
}

// TestSparseEquivalenceCMesh runs the look-ahead on the §8 concentrated
// mesh (4x4 routers, four cores each, patterns over the virtual 8x8 core
// grid): a uniform and a coordinate pattern per architecture, probed and
// checked, must match the Eager harness byte for byte.
func TestSparseEquivalenceCMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("CMesh sparse equivalence is slow")
	}
	for _, arch := range router.Archs {
		for _, pattern := range []string{"uniform", "tornado"} {
			arch, pattern := arch, pattern
			t.Run(fmt.Sprintf("%s/%s", arch, pattern), func(t *testing.T) {
				t.Parallel()
				sc := sparseCfg(pattern, 200)
				checkSparse(t, FutureConfig{Kind: CMesh4x4, Arch: arch, Pattern: pattern, RateMBps: sc.RateMBps,
					WarmupCycles: sc.WarmupCycles, MeasureCycles: sc.MeasureCycles, DrainCycles: sc.DrainCycles}.synthetic())
			})
		}
	}
}

// benchSparseRun is the shared body of the sparse microbenches: one full
// synthetic run per iteration.
func benchSparseRun(b *testing.B, cfg SyntheticConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSynthetic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseFSMWait measures the FSM-wait regime on NoX: at ~2% load
// the output FSMs spend nearly every cycle idle between flits, so the
// harness fast path fast-forwards the gaps the Eager harness steps through.
func BenchmarkSparseFSMWait(b *testing.B) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"eager", true}, {"event", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := sparseCfg("uniform", 80)
			cfg.Arch = router.NoX
			cfg.MeasureCycles = 20000
			cfg.Eager = mode.eager
			benchSparseRun(b, cfg)
		})
	}
}

// BenchmarkSparseBurstyGap measures the bursty-gap regime: self-similar
// sources inject dense Pareto bursts separated by long OFF gaps the
// fast path fast-forwards through.
func BenchmarkSparseBurstyGap(b *testing.B) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"eager", true}, {"event", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := sparseCfg("selfsimilar", 120)
			cfg.Arch = router.NoX
			cfg.MeasureCycles = 20000
			cfg.Eager = mode.eager
			benchSparseRun(b, cfg)
		})
	}
}
