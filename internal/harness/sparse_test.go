package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/physical"
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
		cfg.Probe = probe.New(probe.Config{RingEvents: 1 << 20, PeriodNs: physical.ClockPeriodNs(cfg.Arch)})
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
				})
			}
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

			ref := cfg
			ref.Eager = true
			wantRes, wantTrace, wantReport := sparseRun(t, ref)
			gotRes, gotTrace, gotReport := sparseRun(t, cfg)

			if gotRes != wantRes {
				t.Errorf("bursty results diverged from the Eager harness\ngot:\n%s\nwant:\n%s", gotRes, wantRes)
			}
			if gotTrace != wantTrace {
				t.Errorf("bursty probe trace diverged from the Eager harness (%d vs %d bytes)", len(gotTrace), len(wantTrace))
			}
			if gotReport != wantReport {
				t.Errorf("bursty checker report diverged\ngot:\n%s\nwant:\n%s", gotReport, wantReport)
			}
		})
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
