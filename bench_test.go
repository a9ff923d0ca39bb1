package noxnet

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark iteration regenerates the corresponding result at reduced scale
// (short measurement windows, a subset of sweep points) so `go test
// -bench=.` exercises every experiment path in minutes; the cmd/ tools run
// the full-scale versions. The reported custom metrics carry the headline
// numbers so a bench run doubles as a smoke reproduction.

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchPool runs experiment benchmarks at the machine's full parallelism;
// results are bit-identical to serial runs.
var benchPool = exp.NewPool(0)

// BenchmarkTable1SystemParameters renders the Table 1 configuration.
func BenchmarkTable1SystemParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := harness.Table1().String(); len(s) == 0 {
			b.Fatal("empty Table 1")
		}
	}
}

// BenchmarkTable2ClockPeriods evaluates the critical-path timing model for
// all architectures and verifies the published periods.
func BenchmarkTable2ClockPeriods(b *testing.B) {
	want := map[router.Arch]float64{
		router.NonSpec: 0.92, router.SpecFast: 0.69, router.SpecAccurate: 0.72, router.NoX: 0.76,
	}
	for i := 0; i < b.N; i++ {
		for arch, ns := range want {
			if got := physical.ClockPeriodNs(arch); got < ns-1e-9 || got > ns+1e-9 {
				b.Fatalf("%v period %v != %v", arch, got, ns)
			}
		}
	}
}

// benchSweep runs a reduced Figure 8/9 sweep on one pattern.
func benchSweep(b *testing.B, pattern string) []harness.SweepPoint {
	b.Helper()
	base := harness.SyntheticConfig{
		Pattern:       pattern,
		WarmupCycles:  800,
		MeasureCycles: 2000,
		DrainCycles:   8000,
	}
	points, err := harness.SweepSynthetic(base, []float64{600, 1800, 3000}, benchPool)
	if err != nil {
		b.Fatal(err)
	}
	return points
}

// BenchmarkFigure8SyntheticLatency regenerates a reduced uniform-random
// latency-vs-load sweep across all four architectures and reports NoX's
// saturation throughput.
func BenchmarkFigure8SyntheticLatency(b *testing.B) {
	var noxSat float64
	for i := 0; i < b.N; i++ {
		points := benchSweep(b, "uniform")
		noxSat = harness.SaturationMBps(points)[router.NoX]
	}
	b.ReportMetric(noxSat, "NoX-sat-MB/s/node")
}

// BenchmarkFigure9SyntheticEnergyDelay2 regenerates a reduced
// energy-delay^2 sweep and reports NoX's ED^2 at 1.8 GB/s/node.
func BenchmarkFigure9SyntheticEnergyDelay2(b *testing.B) {
	var ed2 float64
	for i := 0; i < b.N; i++ {
		points := benchSweep(b, "uniform")
		for _, pt := range points {
			if pt.RateMBps == 1800 {
				ed2 = pt.Results[router.NoX].EnergyDelay2
			}
		}
	}
	b.ReportMetric(ed2, "NoX-ED2-pJns2")
}

// benchAppResults replays one short application trace on all architectures.
func benchAppResults(b *testing.B, workload string) map[router.Arch]harness.AppResult {
	b.Helper()
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.Generate(w, harness.Table1().Topo, 8000, 7)
	return harness.RunAppAllArchs(tr, 0, benchPool, 0, harness.Telemetry{}, harness.AppCheckpoint{})
}

// BenchmarkFigure10ApplicationLatency regenerates one workload's Figure 10
// bar group and reports the NoX latency.
func BenchmarkFigure10ApplicationLatency(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		lat = benchAppResults(b, "tpcc")[router.NoX].MeanLatencyNs
	}
	b.ReportMetric(lat, "NoX-latency-ns")
}

// BenchmarkFigure11ApplicationEnergyDelay2 regenerates one workload's
// Figure 11 bar group and reports NoX's improvement over Spec-Accurate.
func BenchmarkFigure11ApplicationEnergyDelay2(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		res := benchAppResults(b, "tpcc")
		imp = 100 * (1 - res[router.NoX].EnergyDelay2/res[router.SpecAccurate].EnergyDelay2)
	}
	b.ReportMetric(imp, "NoX-vs-SpecAcc-%")
}

// BenchmarkFigure12PowerBreakdown regenerates the 2 GB/s/node uniform power
// comparison and reports NoX's link power share (paper: ~74%).
func BenchmarkFigure12PowerBreakdown(b *testing.B) {
	var linkShare float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunSynthetic(harness.SyntheticConfig{
			Arch: router.NoX, Pattern: "uniform", RateMBps: 2000,
			WarmupCycles: 800, MeasureCycles: 2500,
		})
		if err != nil {
			b.Fatal(err)
		}
		linkShare = 100 * res.Energy.LinkShare()
	}
	b.ReportMetric(linkShare, "link-power-%")
}

// BenchmarkFigure13Floorplan evaluates the area model and reports the NoX
// tile overhead (paper: 17.2%).
func BenchmarkFigure13Floorplan(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead = 100 * physical.AreaOverheadVsConventional()
	}
	b.ReportMetric(overhead, "NoX-area-%")
}

// BenchmarkNetworkCycle measures raw simulator speed: one cycle of a fully
// loaded 8x8 network, per architecture. The network is preloaded with
// wormhole traffic and warmed before the timer starts so the measurement is
// the loaded per-cycle cost the name promises — construction is excluded.
// (Earlier snapshots predate the ResetTimer and fold construction in; see
// the Performance section of EXPERIMENTS.md before comparing across that
// boundary.)
func BenchmarkNetworkCycle(b *testing.B) {
	for _, arch := range router.Archs {
		b.Run(arch.String(), func(b *testing.B) {
			net := network.New(network.Config{Arch: arch})
			rng := sim.NewRNG(1)
			topo := net.Topology()
			// Preload meaningful traffic and keep it flowing.
			for n := 0; n < topo.Nodes(); n++ {
				dst := noc.NodeID(rng.Intn(topo.Nodes()))
				if dst != noc.NodeID(n) {
					net.Inject(noc.NodeID(n), dst, 8, 0)
				}
			}
			for i := 0; i < 100; i++ {
				net.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4 == 0 {
					src := noc.NodeID(rng.Intn(topo.Nodes()))
					dst := noc.NodeID(rng.Intn(topo.Nodes()))
					if src != dst {
						net.Inject(src, dst, 1, 0)
					}
				}
				net.Step()
			}
		})
	}
}

// BenchmarkNetworkCycleSteady isolates the steady-state per-cycle cost:
// construction, packet creation, and arena warmup all happen before
// ResetTimer, so the timed region is pure datapath — flits recycle through
// the arenas, FIFOs reuse their rings, and the allocs/op column must read 0.
// The network is saturated with long wormhole packets so every measured
// cycle does real switching work. The flight recorder shadows the run the
// way the cmd tools arm it by default, so the 0 allocs/op gate also proves
// the recorder's ring is allocation-free in steady state.
func BenchmarkNetworkCycleSteady(b *testing.B) {
	for _, arch := range router.Archs {
		b.Run(arch.String(), func(b *testing.B) {
			rec := telemetry.NewRecorder(telemetry.RecorderConfig{
				Dir: b.TempDir(), Label: "bench-" + arch.String(),
				PeriodNs: physical.ClockPeriodNs(arch),
			})
			net := network.New(network.Config{Arch: arch, Probe: rec.Probe()})
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
		})
	}
}

// BenchmarkNetworkCycleLarge measures one loaded cycle on big meshes —
// the scaling case the sharded executor exists for — at several worker
// counts. shards=1 is the serial kernel; shards=0 is the library default
// (network.AutoShards), so the row shows directly whether the default earns
// its place at that size. Construction, the first-touch fill of the memoized
// route table and the cold network are kept out of the timing by a warm-up
// of injected cycles before ResetTimer, so the rows order the same way as
// the repo benchmark's network.shard_speedup.mesh32 at any -benchtime. On
// one CPU all counts run within noise (the pool never dispatches in
// parallel); with more shards than CPUs the barrier parks instead of
// spinning and sharding loses. Results are bit-identical across the row;
// only the wall clock moves.
func BenchmarkNetworkCycleLarge(b *testing.B) {
	for _, side := range []int{16, 24, 32} {
		for _, shards := range []int{1, 0, 2, 4, 8} {
			b.Run(fmt.Sprintf("NoX-%dx%d/shards=%d", side, side, shards), func(b *testing.B) {
				net := network.New(network.Config{
					Topo:   noc.Topology{Width: side, Height: side},
					Arch:   router.NoX,
					Shards: shards,
				})
				defer net.Close()
				rng := sim.NewRNG(1)
				cores := net.Cores()
				// Load proportional to mesh size so per-cycle work scales.
				perCycle := cores / 16
				cycle := func() {
					for j := 0; j < perCycle; j++ {
						src := noc.NodeID(rng.Intn(cores))
						dst := noc.NodeID(rng.Intn(cores))
						if src != dst {
							net.Inject(src, dst, 1, 0)
						}
					}
					net.Step()
				}
				for i := 0; i < 300; i++ {
					cycle()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}

// BenchmarkNetworkCycleIdle measures an idle cycle on a drained 8x8
// network — the case the kernel's quiescence fast path exists for.
func BenchmarkNetworkCycleIdle(b *testing.B) {
	for _, arch := range router.Archs {
		b.Run(arch.String()+"/quiesce", func(b *testing.B) {
			net := network.New(network.Config{Arch: arch})
			// A little traffic first so the network reaches idle from a
			// realistic state rather than pristine construction.
			net.Inject(0, 63, 3, 0)
			net.Inject(27, 36, 1, 0)
			if !net.Drain(500) {
				b.Fatal("warmup did not drain")
			}
			for i := 0; i < 8; i++ {
				net.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
		})
	}
}

// BenchmarkNetworkCycleSparse measures the light-load per-cycle cost the
// quiescence fast path exists for: an 8x8 network carrying one single-flit
// packet every 16 cycles (~0.1% per-node injection), so at any instant a
// handful of components along one path are busy and everything else is
// parked. It times the shipping fast path: parking plus the sparse bitmap
// walk plus port-granular dirty masks.
func BenchmarkNetworkCycleSparse(b *testing.B) {
	for _, arch := range router.Archs {
		b.Run(arch.String()+"/event", func(b *testing.B) {
			net := network.New(network.Config{Arch: arch})
			rng := sim.NewRNG(7)
			cores := net.Cores()
			// Reach steady sparse flow from a realistic state: a little
			// traffic, fully drained, arenas warm.
			net.Inject(0, 63, 3, 0)
			net.Inject(27, 36, 1, 0)
			if !net.Drain(500) {
				b.Fatal("warmup did not drain")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%16 == 0 {
					src := noc.NodeID(rng.Intn(cores))
					dst := noc.NodeID(rng.Intn(cores))
					if src != dst {
						net.Inject(src, dst, 1, 0)
					}
				}
				net.Step()
			}
		})
	}
}

// BenchmarkWarmStartSweep measures the checkpoint/fork payoff on a
// warm-up-dominated sweep, the shape the low rungs of the Figure 8 ladder
// have: cold re-runs the 3000-cycle warm phase for every (arch, rate)
// point, warm runs it once per architecture, snapshots the complete
// simulation state, and forks every rate point from the copy. Both paths
// render byte-identical CSV (pinned here and in the harness tests), so the
// cold/warm ns/op ratio is pure wall-clock saved. Serial on purpose — a
// pool would overlap the redundant warm-ups and hide the work the
// snapshot path eliminates.
func BenchmarkWarmStartSweep(b *testing.B) {
	base := harness.SyntheticConfig{
		Pattern: "uniform", Seed: 0xA11CE, Shards: 1,
		WarmupCycles: 3000, MeasureCycles: 600, DrainCycles: 8000,
		WarmRateMBps: 600,
	}
	rates := []float64{400, 600, 800, 1000}
	warm := base
	warm.WarmStart = true
	var coldCSV, warmCSV string
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pts, err := harness.SweepSynthetic(base, rates, nil)
			if err != nil {
				b.Fatal(err)
			}
			coldCSV = harness.SweepCSV("uniform", pts)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pts, err := harness.SweepSynthetic(warm, rates, nil)
			if err != nil {
				b.Fatal(err)
			}
			warmCSV = harness.SweepCSV("uniform", pts)
		}
	})
	if coldCSV != "" && warmCSV != "" && coldCSV != warmCSV {
		b.Fatal("warm-start sweep CSV diverged from the cold sweep")
	}
}

// BenchmarkXORChain measures the core mechanism in isolation: a 5-way
// collision fully resolved through encode/decode at a hot output.
func BenchmarkXORChain(b *testing.B) {
	topo := noc.Topology{Width: 4, Height: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := network.New(network.Config{Topo: topo, Arch: router.NoX})
		for id := 1; id <= 5; id++ {
			net.Inject(noc.NodeID(id), 12, 1, 0)
		}
		if !net.Drain(500) {
			b.Fatal("chain did not drain")
		}
	}
}

// BenchmarkSection8FutureWork regenerates a reduced mesh-vs-CMesh
// comparison (the paper's §8 proposal) and reports how much NoX's latency
// standing against Spec-Accurate improves at higher radix.
func BenchmarkSection8FutureWork(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		st, err := harness.RunFutureStudy([]float64{500}, "uniform", 1, benchPool)
		if err != nil {
			b.Fatal(err)
		}
		mesh, ok1 := st.NoXGapVsSpecAccurate(harness.Mesh8x8, 500)
		cmesh, ok2 := st.NoXGapVsSpecAccurate(harness.CMesh4x4, 500)
		if !ok1 || !ok2 {
			b.Fatal("study points missing")
		}
		improvement = 100 * (mesh - cmesh)
	}
	b.ReportMetric(improvement, "NoX-gain-on-CMesh-pp")
}
