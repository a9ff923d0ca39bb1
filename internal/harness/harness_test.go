package harness

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/trace"
)

// fastCfg keeps shape tests quick while staying on the paper's 8x8 system.
func fastCfg(pattern string, rate float64) SyntheticConfig {
	return SyntheticConfig{
		Pattern:       pattern,
		RateMBps:      rate,
		WarmupCycles:  1000,
		MeasureCycles: 3000,
		DrainCycles:   12000,
	}
}

// TestLowLoadLatencyOrdering checks Figure 8's low-injection regime: in
// absolute time the clock-period order rules — SpecFast < SpecAccurate <
// NoX < NonSpec. The rate sits below the paper's first crossover
// (Spec-Fast cedes to Spec-Accurate at 575 MB/s/node).
func TestLowLoadLatencyOrdering(t *testing.T) {
	lat := map[router.Arch]float64{}
	for _, arch := range router.Archs {
		cfg := fastCfg("uniform", 250)
		cfg.Arch = arch
		res, err := RunSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Fatalf("%v saturated at 250 MB/s/node", arch)
		}
		lat[arch] = res.MeanLatencyNs
	}
	if !(lat[router.SpecFast] < lat[router.SpecAccurate] &&
		lat[router.SpecAccurate] < lat[router.NoX] &&
		lat[router.NoX] < lat[router.NonSpec]) {
		t.Errorf("low-load latency ordering violated: %v", lat)
	}
}

// TestSaturationOrdering checks Figure 8a's high-injection regime on
// uniform traffic: NoX sustains the highest absolute bandwidth, Spec-Fast
// by far the lowest (§5.1). Three rungs and short windows keep every
// saturation within 1 % of a 7-rung sweep of 4000 measured cycles, and
// still fail a Spec-Fast whose Switch-Next drops the success (Spec-Fast
// then outlasts Spec-Accurate) and NoX rates converted at the
// non-speculative clock (NoX then saturates below it).
func TestSaturationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep is slow")
	}
	base := fastCfg("uniform", 0)
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 500, 1500, 2000
	pts, err := SweepSynthetic(base, []float64{1800, 2600, 3400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sat := SaturationMBps(pts)
	if !(sat[router.NoX] > sat[router.NonSpec] &&
		sat[router.NonSpec] > sat[router.SpecAccurate] &&
		sat[router.SpecAccurate] > sat[router.SpecFast]) {
		t.Errorf("saturation ordering violated: %v", sat)
	}
	// §5.1: Spec-Fast "frequently saturates at less than half the
	// bandwidth" — allow up to 60% here.
	if sat[router.SpecFast] > 0.62*sat[router.NoX] {
		t.Errorf("Spec-Fast saturation %v too close to NoX %v", sat[router.SpecFast], sat[router.NoX])
	}
}

// TestFigure12PowerShape checks the §5.3 power claims at 2 GB/s/node
// uniform: the channel dominates (~74%), the non-speculative router draws
// the least, and Spec-Accurate draws more than NoX.
func TestFigure12PowerShape(t *testing.T) {
	res := map[router.Arch]RunResult{}
	for _, arch := range []router.Arch{router.NonSpec, router.SpecAccurate, router.NoX} {
		cfg := fastCfg("uniform", 2000)
		cfg.Arch = arch
		r, err := RunSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Saturated {
			t.Fatalf("%v saturated at 2 GB/s/node", arch)
		}
		res[arch] = r
	}
	for arch, r := range res {
		if share := r.Energy.LinkShare(); share < 0.62 || share > 0.82 {
			t.Errorf("%v link power share %.2f outside Fig. 12's neighborhood", arch, share)
		}
	}
	if !(res[router.NonSpec].PowerMW < res[router.NoX].PowerMW) {
		t.Error("non-speculative router should draw the least power")
	}
	if !(res[router.SpecAccurate].PowerMW > res[router.NoX].PowerMW) {
		t.Error("Spec-Accurate should draw more power than NoX (misspeculated link drives)")
	}
}

// TestRunSyntheticValidation checks error paths.
func TestRunSyntheticValidation(t *testing.T) {
	cfg := fastCfg("uniform", 1e9)
	cfg.Arch = router.NoX
	if _, err := RunSynthetic(cfg); err == nil {
		t.Error("impossible rate accepted")
	}
	cfg = fastCfg("not-a-pattern", 500)
	if _, err := RunSynthetic(cfg); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestRunSyntheticRateValidation pins the typed failure for rates no run
// can mean (they used to panic in traffic.NewSelfSimilar or print NaN
// latencies with a nil error) and keeps the zero-rate Bernoulli run — the
// idle-network configuration — legal.
func TestRunSyntheticRateValidation(t *testing.T) {
	cases := []struct {
		name    string
		pattern string
		rate    float64
		want    error // nil = the run must succeed
	}{
		{"negative", "uniform", -5, ErrRateInvalid},
		{"NaN", "uniform", math.NaN(), ErrRateInvalid},
		{"+Inf", "uniform", math.Inf(1), ErrRateInvalid},
		{"-Inf", "uniform", math.Inf(-1), ErrRateInvalid},
		{"selfsimilar zero", "selfsimilar", 0, ErrRateInvalid},
		{"selfsimilar negative", "selfsimilar", -5, ErrRateInvalid},
		{"too fast stays infeasible", "uniform", 1e9, ErrRateInfeasible},
		{"bernoulli zero is the idle network", "uniform", 0, nil},
		{"selfsimilar positive", "selfsimilar", 500, nil},
	}
	for _, tc := range cases {
		cfg := fastCfg(tc.pattern, tc.rate)
		cfg.Arch = router.NoX
		cfg.WarmupCycles, cfg.MeasureCycles = 200, 600
		res, err := RunSynthetic(cfg)
		if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil && tc.rate == 0 && res.DeliveredPackets != 0 {
			t.Errorf("%s: idle network delivered %d packets", tc.name, res.DeliveredPackets)
		}
	}
	// A bad rung is a caller mistake, not the end of a series: sweeps fail.
	if _, err := SweepSynthetic(fastCfg("uniform", 0), []float64{300, -1}, nil); !errors.Is(err, ErrRateInvalid) {
		t.Errorf("sweep with a negative rung: err = %v, want ErrRateInvalid", err)
	}
	// A negative packet length makes the packet rate negative: such a run
	// never injects and would report an empty network as a result.
	cfg := fastCfg("uniform", 500)
	cfg.PacketFlits = -2
	if _, err := RunSynthetic(cfg); !errors.Is(err, network.ErrBadPacket) {
		t.Errorf("-2-flit packets: err = %v, want network.ErrBadPacket", err)
	}
	// A negative window used to panic in stats.NewCollector; zero still
	// selects the default.
	for _, w := range []struct{ warm, measure, drain int64 }{{-100, 0, 0}, {0, -100, 0}, {0, 0, -100}} {
		cfg := fastCfg("uniform", 500)
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = w.warm, w.measure, w.drain
		if _, err := RunSynthetic(cfg); !errors.Is(err, ErrCycles) {
			t.Errorf("windows %+v: err = %v, want ErrCycles", w, err)
		}
	}
}

// TestSweepStopsAfterSaturation verifies an architecture's series ends at
// its first saturated point.
func TestSweepStopsAfterSaturation(t *testing.T) {
	base := fastCfg("uniform", 0)
	base.MeasureCycles = 2000
	pts, err := SweepSynthetic(base, []float64{1500, 2300, 3100, 3900}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seenSaturated := false
	for _, pt := range pts {
		r, ok := pt.Results[router.SpecFast]
		if seenSaturated && ok {
			t.Error("Spec-Fast series continued past saturation")
		}
		if ok && r.Saturated {
			seenSaturated = true
		}
	}
	if !seenSaturated {
		t.Error("Spec-Fast never saturated by 3.9 GB/s/node")
	}
}

// TestConversionRoundTrip property-checks the MB/s <-> flits/cycle
// conversions.
func TestConversionRoundTrip(t *testing.T) {
	f := func(rateRaw uint16, archRaw uint8) bool {
		rate := float64(rateRaw%5000) + 1
		period := []float64{0.92, 0.69, 0.72, 0.76}[archRaw%4]
		back := MBpsPerNode(FlitsPerNodeCycle(rate, period), period)
		return math.Abs(back-rate) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFlitsPerNodeCycleKnown pins the §5.1 saturation point: 2775 MB/s/node
// at NoX's 0.76 ns clock is ~0.264 flits/node/cycle.
func TestFlitsPerNodeCycleKnown(t *testing.T) {
	got := FlitsPerNodeCycle(2775, 0.76)
	if math.Abs(got-0.2636) > 0.001 {
		t.Errorf("FlitsPerNodeCycle(2775, 0.76) = %v, want ~0.2636", got)
	}
}

// TestRunAppShape replays one short application trace on all architectures
// and checks delivery, determinism, and the Figure 10/11 ordering claims
// that are robust at small scale (NoX beats NonSpec on both latency and
// ED^2).
func TestRunAppShape(t *testing.T) {
	w, err := trace.WorkloadByName("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(w, Table1().Topo, 8000, 99)
	results := RunAppAllArchs(tr, 4, nil, 0, Telemetry{}, AppCheckpoint{})
	for arch, r := range results {
		if !r.Drained {
			t.Fatalf("%v did not drain the trace", arch)
		}
		if r.DeliveredPkts != results[router.NoX].DeliveredPkts {
			t.Fatalf("%v delivered %d packets, NoX %d (same trace!)", arch, r.DeliveredPkts, results[router.NoX].DeliveredPkts)
		}
	}
	if !(results[router.NoX].MeanLatencyNs < results[router.NonSpec].MeanLatencyNs) {
		t.Error("NoX should beat the non-speculative router's application latency")
	}
	if !(results[router.NoX].EnergyDelay2 < results[router.NonSpec].EnergyDelay2) {
		t.Error("NoX should beat the non-speculative router's ED^2")
	}
	if !(results[router.NoX].EnergyDelay2 < results[router.SpecFast].EnergyDelay2) {
		t.Error("NoX should beat Spec-Fast's ED^2")
	}

	// Determinism: replaying the identical trace reproduces the result.
	again := RunApp(AppConfig{Arch: router.NoX, Trace: tr, BufferDepth: 4})
	if again.MeanLatencyNs != results[router.NoX].MeanLatencyNs {
		t.Error("application replay is not deterministic")
	}
}

// TestRunAppEmptyTrace: a trace too short to hold an event (noxapp
// -cpu-cycles 0) replays to a zero-delivery result instead of indexing its
// last event.
func TestRunAppEmptyTrace(t *testing.T) {
	w, err := trace.WorkloadByName("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(w, Table1().Topo, 0, 1)
	if len(tr.Events) != 0 {
		t.Fatalf("a 0-cycle trace holds %d events", len(tr.Events))
	}
	res := RunApp(AppConfig{Arch: router.NoX, Trace: tr})
	if !res.Drained || res.DeliveredPkts != 0 || !math.IsNaN(res.MeanLatencyNs) {
		t.Errorf("empty trace: drained %v, %d delivered, mean latency %v ns", res.Drained, res.DeliveredPkts, res.MeanLatencyNs)
	}
}

// TestGeoMeanImprovement checks the aggregation arithmetic.
func TestGeoMeanImprovement(t *testing.T) {
	mk := func(nox, ns float64) map[router.Arch]AppResult {
		return map[router.Arch]AppResult{
			router.NoX:     {EnergyDelay2: nox},
			router.NonSpec: {EnergyDelay2: ns},
		}
	}
	imp := GeoMeanImprovement([]map[router.Arch]AppResult{mk(50, 100), mk(100, 100)})
	if math.Abs(imp[router.NonSpec]-0.25) > 1e-12 {
		t.Errorf("improvement = %v, want 0.25", imp[router.NonSpec])
	}
}

// TestTable1Format checks the Table 1 renderer includes every parameter.
func TestTable1Format(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"8x8 mesh", "3GHz", "100 cycles", "8 byte control, 72 byte data", "4 64-bit entries/port", "2mm", "Dimension Ordered"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, s)
		}
	}
}

// TestTable2Format checks the Table 2 renderer reproduces the published
// periods and speedups.
func TestTable2Format(t *testing.T) {
	s := FormatTable2()
	for _, want := range []string{"0.92 ns", "0.69 ns", "0.72 ns", "0.76 ns", "+33.3%", "+27.8%", "+21.1%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, s)
		}
	}
}

// TestFloorplanFormat checks the Figure 13 renderer.
func TestFloorplanFormat(t *testing.T) {
	s := FormatFloorplan()
	for _, want := range []string{"28.2", "17.2%"} {
		if !strings.Contains(s, want) {
			t.Errorf("floorplan output missing %q:\n%s", want, s)
		}
	}
}

// TestPowerBreakdownView checks Figure 12 is read from the uniform sweep's
// 2000 MB/s/node rung and from nothing else: no other pattern or rung, and an
// architecture absent from the rung (its series ended below it) is reported
// as not sustaining the load, with no comparison that needs it.
func TestPowerBreakdownView(t *testing.T) {
	at := func(mw float64) RunResult {
		return RunResult{PowerMW: mw, Energy: power.Breakdown{BufferPJ: mw, LinkPJ: 3 * mw}}
	}
	rung := func(rate float64, mw float64, archs ...router.Arch) SweepPoint {
		p := SweepPoint{RateMBps: rate, Results: map[router.Arch]RunResult{}}
		for _, a := range archs {
			p.Results[a] = at(mw)
		}
		return p
	}
	points := []SweepPoint{
		rung(1800, 111, router.Archs...),
		rung(2000, 222, router.NonSpec, router.SpecAccurate, router.NoX),
		rung(2200, 333, router.Archs...),
	}
	s := FormatPowerBreakdown("uniform", points)
	for _, want := range []string{"@ 2 GB/s/node uniform", "222.0", "Spec-Fast        not shown", "total:  +0.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 12 missing %q:\n%s", want, s)
		}
	}
	for _, other := range []string{"111.0", "333.0"} {
		if strings.Contains(s, other) {
			t.Errorf("Figure 12 reads another rung (%s):\n%s", other, s)
		}
	}
	delete(points[1].Results, router.NoX)
	if s := FormatPowerBreakdown("uniform", points); !strings.Contains(s, "NoX              not shown") || strings.Contains(s, "vs NoX") {
		t.Errorf("Figure 12 without NoX at the rung:\n%s", s)
	}
	if s := FormatPowerBreakdown("transpose", points); s != "" {
		t.Errorf("Figure 12 printed for transpose:\n%s", s)
	}
	if s := FormatPowerBreakdown("uniform", append(points[:1:1], points[2])); s != "" {
		t.Errorf("Figure 12 printed without a 2000 MB/s/node rung:\n%s", s)
	}
}

// TestSyntheticDeterminism verifies identical configs give identical
// results.
func TestSyntheticDeterminism(t *testing.T) {
	cfg := fastCfg("transpose", 400)
	cfg.Arch = router.NoX
	a, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunSynthetic(cfg)
	if a.MeanLatencyNs != b.MeanLatencyNs || a.Window != b.Window {
		t.Error("synthetic run is not deterministic")
	}
}

// TestSelfSimilarRun exercises the Pareto process end to end.
func TestSelfSimilarRun(t *testing.T) {
	cfg := fastCfg("selfsimilar", 500)
	cfg.Arch = router.NoX
	res, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("self-similar at 500 MB/s/node should be sustainable")
	}
	if res.DeliveredPackets == 0 {
		t.Error("no traffic delivered")
	}
}

// TestMultiFlitSynthetic exercises 9-flit packets through the synthetic
// harness (abort paths on NoX).
func TestMultiFlitSynthetic(t *testing.T) {
	cfg := fastCfg("uniform", 900)
	cfg.Arch = router.NoX
	cfg.PacketFlits = 9
	res, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("9-flit uniform at 900 MB/s/node should be sustainable")
	}
	if res.Window.Aborts == 0 {
		t.Error("multi-flit traffic should trigger NoX aborts")
	}
}

// TestCSVExports checks the machine-readable exports carry one row per
// result with the right headers.
func TestCSVExports(t *testing.T) {
	pts := []SweepPoint{{
		RateMBps: 500,
		Results: map[router.Arch]RunResult{
			router.NoX:     {Arch: router.NoX, OfferedMBps: 500, AcceptedMBps: 499, MeanLatencyNs: 6.0},
			router.NonSpec: {Arch: router.NonSpec, OfferedMBps: 500, AcceptedMBps: 498, MeanLatencyNs: 7.0},
		},
	}}
	csv := SweepCSV("uniform", pts)
	if !strings.HasPrefix(csv, "pattern,rate_mbps_per_node,architecture,") {
		t.Errorf("sweep CSV header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if got := strings.Count(csv, "\n"); got != 3 {
		t.Errorf("sweep CSV rows = %d, want 3 (header + 2)", got)
	}
	app := AppCSV([]map[router.Arch]AppResult{{
		router.NoX: {Workload: "tpcc", Arch: router.NoX, MeanLatencyNs: 17},
	}})
	if !strings.Contains(app, "tpcc,NoX,17.0000") {
		t.Errorf("app CSV missing row: %s", app)
	}
}

// TestFutureStudyHypothesis runs a reduced §8 future-work comparison and
// checks its headline: NoX's standing against Spec-Accurate improves on
// the radix-8 concentrated mesh relative to the baseline mesh (fixed
// decode cost + more convergent collisions per output).
func TestFutureStudyHypothesis(t *testing.T) {
	if testing.Short() {
		t.Skip("future study is slow")
	}
	st, err := RunFutureStudy([]float64{500}, "uniform", 0xF07E, nil)
	if err != nil {
		t.Fatal(err)
	}
	meshGap, ok1 := st.NoXGapVsSpecAccurate(Mesh8x8, 500)
	cmeshGap, ok2 := st.NoXGapVsSpecAccurate(CMesh4x4, 500)
	if !ok1 || !ok2 {
		t.Fatal("study points missing or saturated")
	}
	if cmeshGap >= meshGap {
		t.Errorf("NoX/SpecAcc latency ratio should improve on CMesh: mesh %.3f, cmesh %.3f", meshGap, cmeshGap)
	}
	// The clock-penalty component alone must shrink (physical model).
	if CMesh4x4.Datapath().NoXPenaltyVsSpecAccurate() >= Mesh8x8.Datapath().NoXPenaltyVsSpecAccurate() {
		t.Error("CMesh clock penalty should be smaller")
	}
}

// TestRunFutureValidation checks the error path and kind plumbing.
func TestRunFutureValidation(t *testing.T) {
	if _, err := RunFuture(FutureConfig{Kind: CMesh4x4, Arch: router.NoX, RateMBps: 1e9}); !errors.Is(err, ErrRateInfeasible) {
		t.Errorf("impossible rate: err = %v, want ErrRateInfeasible", err)
	}
	for _, rate := range []float64{-5, math.NaN()} {
		if _, err := RunFuture(FutureConfig{Kind: Mesh8x8, Arch: router.NoX, RateMBps: rate}); !errors.Is(err, ErrRateInvalid) {
			t.Errorf("rate %v: err = %v, want ErrRateInvalid", rate, err)
		}
	}
	if Mesh8x8.System().Cores() != 64 || CMesh4x4.System().Cores() != 64 {
		t.Error("both organizations must host 64 cores")
	}
	if CMesh4x4.System().Ports() != 8 {
		t.Error("CMesh routers must be radix 8")
	}
	if CMesh4x4.EnergyModel().LinkPJ != 2*Mesh8x8.EnergyModel().LinkPJ {
		t.Error("CMesh channel energy should double")
	}
}
