package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
)

// TestWarmStartSweepMatchesCold is the warm-start contract: a sweep that
// warms once per architecture and forks every rate point from the copy must
// render exactly the CSV the cold sweep renders — serial, speculative
// parallel, sharded, and on the Eager reference path, which keeps the
// look-ahead's arrival cache honest across the warm seam (a warm image
// saved and restored by look-ahead members carries it). The second warm-up rate is one Non-Speculative's
// slower clock cannot offer: that series ends at the warm phase, on the
// serial and the speculative walk alike, as the cold sweep ends it.
func TestWarmStartSweepMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-start equivalence sweep is slow")
	}
	// The second row warms near saturation, the dense end of every cold
	// cell's cost, so it keeps to two rungs.
	for _, row := range []struct {
		warmRate float64
		rates    []float64
	}{{600, []float64{600, 1800, 3000, 3800}}, {10000, []float64{600, 1800}}} {
		warmRate, rates := row.warmRate, row.rates
		t.Run(fmt.Sprintf("warm%g", warmRate), func(t *testing.T) {
			base := fastCfg("uniform", 0)
			base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 800, 2000, 8000
			base.WarmRateMBps = warmRate

			cold, err := SweepSynthetic(base, rates, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := SweepCSV("uniform", cold)
			if _, ok := cold[0].Results[router.NonSpec]; ok == (warmRate == 10000) {
				t.Fatalf("cold sweep at warm-up rate %g: Non-Speculative result present = %v", warmRate, ok)
			}

			warm := base
			warm.WarmStart = true
			runs := []struct {
				name string
				run  func() ([]SweepPoint, error)
			}{
				{"serial", func() ([]SweepPoint, error) { return SweepSynthetic(warm, rates, nil) }},
				{"parallel", func() ([]SweepPoint, error) { return SweepSynthetic(warm, rates, exp.NewPool(4)) }},
				{"sharded", func() ([]SweepPoint, error) {
					sharded := warm
					sharded.Shards = 2
					return SweepSynthetic(sharded, rates, exp.NewPool(2))
				}},
				{"eager", func() ([]SweepPoint, error) {
					eager := warm
					eager.Eager = true
					return SweepSynthetic(eager, rates, nil)
				}},
			}
			for _, tc := range runs {
				pts, err := tc.run()
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if got := SweepCSV("uniform", pts); got != want {
					t.Errorf("%s warm-start sweep CSV diverged from cold\nwarm:\n%s\ncold:\n%s", tc.name, got, want)
				}
				if got, wantDump := fmt.Sprintf("%+v", pts), fmt.Sprintf("%+v", cold); got != wantDump {
					t.Errorf("%s warm-start results diverged from cold\nwarm: %.400s\ncold: %.400s", tc.name, got, wantDump)
				}
			}
		})
	}
}

// TestWarmStartRequiresRate pins the misconfiguration errors on the serial
// and the parallel sweep: a missing warm-up rate, and one that is no
// bandwidth at all, which must be reported as the warm-up rate (not as the
// offered rate the warm phase runs at).
func TestWarmStartRequiresRate(t *testing.T) {
	base := fastCfg("uniform", 0)
	base.WarmStart = true
	if _, err := SweepSynthetic(base, []float64{600}, nil); err != ErrWarmRate {
		t.Errorf("SweepSynthetic: err = %v, want ErrWarmRate", err)
	}
	if _, err := SweepSynthetic(base, []float64{600}, exp.NewPool(2)); err != ErrWarmRate {
		t.Errorf("SweepSynthetic parallel: err = %v, want ErrWarmRate", err)
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		bad := base
		bad.WarmRateMBps = rate
		for _, pool := range []*exp.Pool{nil, exp.NewPool(2)} {
			_, err := SweepSynthetic(bad, []float64{600}, pool)
			if !errors.Is(err, ErrRateInvalid) || !strings.Contains(fmt.Sprint(err), "warm-up rate") {
				t.Errorf("warm-up rate %v (pool %v): err = %v, want ErrRateInvalid naming the warm-up rate", rate, pool != nil, err)
			}
		}
	}
}

// instrumentedOut is one fully instrumented run's comparable output: the
// rendered sweep CSV row, the probe trace over [stopAt, end], and the
// invariant checker's report.
type instrumentedOut struct {
	csv    string
	trace  string
	report string
}

// runInstrumented executes one synthetic point with a full probe and an
// armed checker. With interrupt set, the run is stopped at main-loop cycle
// stopAt, saved (network image plus harness run state), torn down, restored
// into a freshly built member with a fresh probe and checker, and run to
// completion — the save/restore seam the equivalence test compares against
// the uninterrupted run.
func runInstrumented(t *testing.T, cfg SyntheticConfig, stopAt int64, interrupt bool) instrumentedOut {
	t.Helper()
	// A probed network runs serially: a sharded leg compares results and
	// checker reports only.
	mkProbe := func() *probe.Probe {
		if cfg.Shards > 1 {
			return nil
		}
		return probe.New(probe.Config{RingEvents: 1 << 20, PeriodNs: physical.ClockPeriodNs(cfg.Arch)})
	}
	cfg.Probe = mkProbe()
	cfg.Check = check.New(check.Config{})
	m, err := prepareSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.Build(m.netConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.attach(net)
	for cyc := int64(0); cyc < m.total; cyc++ {
		if interrupt && cyc == stopAt {
			img, err := snapshot.Encode(net)
			if err != nil {
				t.Fatalf("mid-run save: %v", err)
			}
			e := codec.NewEncoder()
			if err := m.saveRunState(e); err != nil {
				t.Fatalf("mid-run run-state save: %v", err)
			}
			run := e.Bytes()
			net.Close()

			cfg2 := cfg
			cfg2.Probe = mkProbe()
			cfg2.Check = check.New(check.Config{})
			m2, err := prepareSynthetic(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			net2, err := snapshot.Decode(img, m2.netConfig())
			if err != nil {
				t.Fatalf("mid-run restore: %v", err)
			}
			m2.attach(net2)
			if err := m2.restoreRunState(run); err != nil {
				t.Fatalf("mid-run run-state restore: %v", err)
			}
			m, net = m2, net2
			if got := net.Cycle(); got != stopAt {
				t.Fatalf("restored at cycle %d, want %d", got, stopAt)
			}
		}
		m.injectCycle(cyc)
		net.Step()
	}
	m.enterDrain()
	for m.needsDrainStep() {
		net.Step()
	}
	res := m.finalize()
	final := net.Cycle()
	net.Close()

	var tb, rb bytes.Buffer
	if m.cfg.Probe != nil {
		if err := m.cfg.Probe.WriteChromeTraceWindow(&tb, stopAt, final); err != nil {
			t.Fatal(err)
		}
	}
	m.cfg.Check.WriteReport(&rb)
	csv := SweepCSV(cfg.Pattern, []SweepPoint{{
		RateMBps: cfg.RateMBps,
		Results:  map[router.Arch]RunResult{cfg.Arch: res},
	}})
	return instrumentedOut{csv: csv, trace: tb.String(), report: rb.String()}
}

// TestMidRunSaveRestoreEquivalence pins the checkpoint seam for every
// architecture at both execution modes: stopping a run mid-measurement,
// saving, restoring into a fresh network, and finishing must produce the
// same sweep CSV row, the same probe events from the seam on, and the same
// checker report as the run that was never interrupted.
func TestMidRunSaveRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-run equivalence matrix is slow")
	}
	for _, arch := range router.Archs {
		for _, shards := range []int{1, 4} {
			arch, shards := arch, shards
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				t.Parallel()
				cfg := fastCfg("uniform", 900)
				cfg.Arch = arch
				cfg.Shards = shards
				cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 600, 1500, 8000
				const stopAt = 1200
				want := runInstrumented(t, cfg, stopAt, false)
				got := runInstrumented(t, cfg, stopAt, true)
				if got.csv != want.csv {
					t.Errorf("sweep CSV diverged across the save/restore seam\ngot:\n%s\nwant:\n%s", got.csv, want.csv)
				}
				if got.trace != want.trace {
					t.Errorf("probe trace diverged across the save/restore seam (%d vs %d bytes)", len(got.trace), len(want.trace))
				}
				if got.report != want.report {
					t.Errorf("checker report diverged across the save/restore seam\ngot:\n%s\nwant:\n%s", got.report, want.report)
				}
			})
		}
	}
}
