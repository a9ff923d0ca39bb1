package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arbiter"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// This file holds the ablation studies DESIGN.md calls out: the design
// choices the paper fixes (4-deep buffers, round-robin arbitration, the
// XOR fabric's energy premium) varied one at a time to show how much of
// the headline result each one carries.

// AblationPoint is one configuration's outcome at a fixed offered load.
type AblationPoint struct {
	Label         string
	Arch          router.Arch
	MeanLatencyNs float64
	AcceptedMBps  float64
	Saturated     bool
}

// runConfigured runs uniform traffic at the given load through a custom
// network configuration — the shared engine under the ablations.
func runConfigured(arch router.Arch, rateMBps float64, bufferDepth int,
	newArb func(int) arbiter.Arbiter, warm, meas, drain int64, shards int) AblationPoint {
	periodNs := physical.ClockPeriodNs(arch)
	pktRate := FlitsPerNodeCycle(rateMBps, periodNs)

	topo := noc.Topology{Width: 8, Height: 8}
	net := network.New(network.Config{Topo: topo, Arch: arch, BufferDepth: bufferDepth, NewArbiter: newArb, Shards: shards})
	defer net.Close()
	col := stats.NewCollector(warm, warm+meas)
	net.OnDeliver = col.OnDeliver

	pattern := traffic.Uniform{Topo: topo}
	arr, dests := forkStreams(0xAB1A7E, topo.Nodes())
	procs := make([]*traffic.Bernoulli, len(arr))
	for i, r := range arr {
		procs[i] = &traffic.Bernoulli{P: pktRate, RNG: r}
	}
	for cyc := int64(0); cyc < warm+meas; cyc++ {
		for id := 0; id < topo.Nodes(); id++ {
			if procs[id].Tick() {
				src := noc.NodeID(id)
				p := net.Inject(src, pattern.Dest(src, dests[id]), 1, 0)
				col.OnCreate(p, cyc)
			}
		}
		net.Step()
	}
	deadline := net.Cycle() + drain
	for !col.Complete() && net.Cycle() < deadline {
		if net.Idle() {
			net.FastForwardIdle(deadline - net.Cycle())
			break
		}
		net.Step()
	}
	return AblationPoint{
		Arch:          arch,
		MeanLatencyNs: col.MeanLatencyCycles() * periodNs,
		AcceptedMBps:  MBpsPerNode(col.AcceptedFlitsPerNodeCycle(topo.Nodes()), periodNs),
		Saturated: !col.Complete() ||
			float64(col.WindowFlits()) < 0.92*float64(col.CreatedFlits()),
	}
}

// AblateBufferDepth varies the input FIFO depth around Table 1's 4 entries
// at a fixed uniform load for the given architectures. Shallower buffers
// shrink the credit round-trip margin; NoX's decode register (one slot of
// extra storage, freed-early winners) makes it the most robust.
func AblateBufferDepth(depths []int, rateMBps float64, archs []router.Arch, pool *exp.Pool, shards int) []AblationPoint {
	out, _ := exp.Map(context.Background(), pool, len(depths)*len(archs),
		func(_ context.Context, i int) (AblationPoint, error) {
			d := depths[i/len(archs)]
			pt := runConfigured(archs[i%len(archs)], rateMBps, d, nil, 1500, 4000, 15000, shards)
			pt.Label = fmt.Sprintf("depth=%d", d)
			return pt, nil
		})
	return out
}

// AblateArbiter compares round-robin against matrix (least recently
// served) output arbiters at a fixed uniform load. The NoX decode order
// follows grant order, so the arbiter choice is visible end to end.
func AblateArbiter(rateMBps float64, archs []router.Arch, pool *exp.Pool, shards int) []AblationPoint {
	kinds := []struct {
		name string
		mk   func(int) arbiter.Arbiter
	}{
		{"roundrobin", nil},
		{"matrix", func(n int) arbiter.Arbiter { return arbiter.NewMatrix(n) }},
	}
	out, _ := exp.Map(context.Background(), pool, len(kinds)*len(archs),
		func(_ context.Context, i int) (AblationPoint, error) {
			k := kinds[i/len(archs)]
			pt := runConfigured(archs[i%len(archs)], rateMBps, 4, k.mk, 1500, 4000, 15000, shards)
			pt.Label = k.name
			return pt, nil
		})
	return out
}

// AblateXORCost reports how the Figure 12 power comparison between
// Spec-Accurate and NoX shifts as the XOR fabric's per-traversal energy
// premium varies around §2.5's "marginally more" (our default 1.06x).
// Returned map: factor -> Spec-Accurate total power relative to NoX.
func AblateXORCost(factors []float64, rateMBps float64, pool *exp.Pool, shards int) (map[float64]float64, error) {
	base := SyntheticConfig{Pattern: "uniform", RateMBps: rateMBps,
		WarmupCycles: 1500, MeasureCycles: 4000, Shards: shards}

	archs := []router.Arch{router.SpecAccurate, router.NoX}
	runs, err := exp.Map(context.Background(), pool, len(archs),
		func(_ context.Context, i int) (RunResult, error) {
			cfg := base
			cfg.Arch = archs[i]
			return RunSynthetic(cfg)
		})
	if err != nil {
		return nil, err
	}
	sa, nox := runs[0], runs[1]
	out := map[float64]float64{}
	m := power.DefaultModel()
	for _, f := range factors {
		// Recompute NoX energy with the alternative XOR premium; event
		// counts are unchanged (energy model is downstream of simulation).
		adj := m
		adj.XbarPJ = m.XbarPJ * f / power.XbarXORFactor
		e := adj.Energy(nox.Window, true)
		noxMW := e.TotalPJ() / (4000 * physical.ClockPeriodNs(router.NoX))
		out[f] = sa.PowerMW / noxMW
	}
	return out, nil
}

// FormatAblation renders ablation points grouped by label.
func FormatAblation(title string, points []AblationPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s %-16s %12s %12s %10s\n", "config", "architecture", "latency(ns)", "accepted", "saturated")
	for _, pt := range points {
		lat := fmt.Sprintf("%.2f", pt.MeanLatencyNs)
		if pt.Saturated {
			lat = "-"
		}
		fmt.Fprintf(&b, "%-14s %-16s %12s %9.0f MB %10v\n", pt.Label, pt.Arch, lat, pt.AcceptedMBps, pt.Saturated)
	}
	return b.String()
}
