package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arbiter"
	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/router"
)

// This file holds the ablation studies DESIGN.md calls out: the design
// choices the paper fixes (4-deep buffers, round-robin arbitration, the
// XOR fabric's energy premium) varied one at a time to show how much of
// the headline result each one carries.

// ablate runs uniform traffic at rateMBps on the 8x8 mesh for every
// (variant, architecture) pair, variant-major: vary sets variant v's knob
// on the run's configuration, and each result is labelled with its
// variant's name.
func ablate(names []string, vary func(cfg *SyntheticConfig, v int), rateMBps float64, archs []router.Arch, pool *exp.Pool, shards int) ([]RunResult, error) {
	return exp.Map(context.Background(), pool, len(names)*len(archs),
		func(_ context.Context, i int) (RunResult, error) {
			v := i / len(archs)
			cfg := SyntheticConfig{Arch: archs[i%len(archs)], Pattern: "uniform", RateMBps: rateMBps,
				WarmupCycles: 1500, MeasureCycles: 4000, DrainCycles: 15000, Seed: 0xAB1A7E, Shards: shards}
			vary(&cfg, v)
			res, err := RunSynthetic(cfg)
			res.Label = names[v]
			return res, err
		})
}

// AblateBufferDepth varies the input FIFO depth around Table 1's 4 entries
// at a fixed uniform load for the given architectures. Shallower buffers
// shrink the credit round-trip margin; NoX's decode register (one slot of
// extra storage, freed-early winners) makes it the most robust.
func AblateBufferDepth(depths []int, rateMBps float64, archs []router.Arch, pool *exp.Pool, shards int) ([]RunResult, error) {
	names := make([]string, len(depths))
	for i, d := range depths {
		names[i] = fmt.Sprintf("depth=%d", d)
	}
	return ablate(names, func(cfg *SyntheticConfig, v int) { cfg.BufferDepth = depths[v] }, rateMBps, archs, pool, shards)
}

// AblateArbiter compares round-robin against matrix (least recently
// served) output arbiters at a fixed uniform load. The NoX decode order
// follows grant order, so the arbiter choice is visible end to end.
func AblateArbiter(rateMBps float64, archs []router.Arch, pool *exp.Pool, shards int) ([]RunResult, error) {
	arbiters := []func(int) arbiter.Arbiter{nil, func(n int) arbiter.Arbiter { return arbiter.NewMatrix(n) }}
	return ablate([]string{"roundrobin", "matrix"}, func(cfg *SyntheticConfig, v int) { cfg.NewArbiter = arbiters[v] },
		rateMBps, archs, pool, shards)
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
		noxMW := e.TotalPJ() / (float64(base.MeasureCycles) * nox.PeriodNs)
		out[f] = sa.PowerMW / noxMW
	}
	return out, nil
}

// FormatAblation renders ablation results grouped by label.
func FormatAblation(title string, points []RunResult) string {
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
