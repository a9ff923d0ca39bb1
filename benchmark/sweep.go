package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/router"
)

// sweepWorkload drives harness.SweepSynthetic the way cmd/noxsweep does
// without flags: serial pool, library-default sharding, every architecture
// up its rate ladder until it saturates. fig8-uniform and lowload-uniform
// are two ladders over the same driver.
type sweepWorkload struct {
	base  harness.SyntheticConfig
	rates []float64
	// pilot is the set-up cell (NoX at 1000 MB/s/node): it pays the lazy
	// memo fills so the first repetition does not.
	pilot harness.SyntheticConfig
	// paper marks the ladder that reaches saturation, where the paper's
	// +9.9 % NoX saturation-throughput gain is the reference.
	paper bool
	// plan is the cell list of the latest untraced repetition; the traced
	// repetition replays it cell by cell.
	plan []harness.SyntheticConfig
}

// Paper windows are 3000/10000/30000 cycles; the ladders below keep the
// paper's rungs and shorten the windows so one repetition is about two
// seconds and a run fits several.
func newFig8(seed uint64, tiny bool) *sweepWorkload {
	w := &sweepWorkload{paper: true}
	w.base = harness.SyntheticConfig{Pattern: "uniform", Seed: seed,
		WarmupCycles: 1000, MeasureCycles: 3000, DrainCycles: 10000}
	for r := 200.0; r <= 3400; r += 400 {
		w.rates = append(w.rates, r)
	}
	if tiny {
		w.base.WarmupCycles, w.base.MeasureCycles, w.base.DrainCycles = 200, 400, 2000
		w.rates = []float64{600, 2200, 3400}
	}
	w.setPilot()
	return w
}

func newLowLoad(seed uint64, tiny bool) *sweepWorkload {
	w := &sweepWorkload{rates: []float64{10, 20, 40}}
	w.base = harness.SyntheticConfig{Pattern: "uniform", Seed: seed,
		WarmupCycles: 3000, MeasureCycles: 300_000, DrainCycles: 30000}
	if tiny {
		w.base.WarmupCycles, w.base.MeasureCycles, w.base.DrainCycles = 300, 10_000, 3000
	}
	w.setPilot()
	return w
}

func (w *sweepWorkload) setPilot() {
	w.pilot = w.base
	w.pilot.Arch, w.pilot.RateMBps = router.NoX, 1000
	if w.pilot.MeasureCycles > 3000 { // the pilot warms memos, not statistics
		w.pilot.MeasureCycles = 3000
	}
}

func (w *sweepWorkload) setup(tr *tracer) error {
	sp := tr.begin("harness.RunSynthetic", "pilot")
	_, err := harness.RunSynthetic(w.pilot)
	tr.end(sp)
	return err
}

func (w *sweepWorkload) rep(tr *tracer) []cell {
	if tr != nil {
		return w.replay(tr)
	}
	var points []harness.SweepPoint
	var err error
	if p := guard(func() { points, err = harness.SweepSynthetic(w.base, w.rates, nil) }); p != "" {
		err = errors.New(p)
	}
	if err != nil {
		return []cell{{ID: "sweep", Fail: firstLine(err.Error())}}
	}
	var cells []cell
	w.plan = w.plan[:0]
	for _, pt := range points {
		for _, arch := range router.Archs {
			res, ok := pt.Results[arch]
			if !ok {
				continue
			}
			cfg := w.base
			cfg.Arch, cfg.RateMBps = arch, pt.RateMBps
			w.plan = append(w.plan, cfg)
			cells = append(cells, w.cellOf(cfg, res))
		}
	}
	return cells
}

// replay runs the planned cells one harness.RunSynthetic call at a time, a
// span around each.
func (w *sweepWorkload) replay(tr *tracer) []cell {
	cells := make([]cell, 0, len(w.plan))
	for _, cfg := range w.plan {
		var res harness.RunResult
		var err error
		id := sweepCellID(cfg)
		sp := tr.begin("harness.RunSynthetic", id)
		if p := guard(func() { res, err = harness.RunSynthetic(cfg) }); p != "" {
			err = errors.New(p)
		}
		tr.end(sp)
		c := w.cellOf(cfg, res)
		if err != nil {
			c.Fail = firstLine(err.Error())
		}
		cells = append(cells, c)
	}
	return cells
}

func sweepCellID(cfg harness.SyntheticConfig) string {
	return fmt.Sprintf("%s/r%.0f", archKey(cfg.Arch), cfg.RateMBps)
}

func (w *sweepWorkload) cellOf(cfg harness.SyntheticConfig, res harness.RunResult) cell {
	return cell{
		ID: sweepCellID(cfg), Arch: cfg.Arch, Cycles: cfg.WarmupCycles + cfg.MeasureCycles, Window: res.Window,
		Headline: res.AcceptedMBps,
		Digest: digest("%d %x %x %v %+v", res.DeliveredPackets, math.Float64bits(res.MeanLatencyCycles),
			math.Float64bits(res.AcceptedMBps), res.Saturated, res.Window),
	}
}

// activeShare re-runs the NoX cells with a sampling probe (the harness's
// only per-cycle hook that sees the kernel's active count).
func (w *sweepWorkload) activeShare() float64 {
	var a activity
	for _, cfg := range w.plan {
		if cfg.Arch != router.NoX {
			continue
		}
		cfg.Probe = samplingProbe()
		if _, err := harness.RunSynthetic(cfg); err == nil {
			a.addSamples(cfg.Probe)
		}
	}
	return a.share(componentCount(network.Config{Arch: router.NoX}))
}

// paperGap is |NoX saturation-throughput gain over the best baseline - 9.9|
// in percentage points (§5.1); saturation throughput is the highest
// accepted bandwidth an architecture reached on the ladder.
func (w *sweepWorkload) paperGap(cells []cell) float64 {
	if !w.paper {
		return 0
	}
	var sat [4]float64
	for _, c := range cells {
		sat[c.Arch] = math.Max(sat[c.Arch], c.Headline)
	}
	best := math.Max(sat[router.NonSpec], math.Max(sat[router.SpecFast], sat[router.SpecAccurate]))
	if best == 0 { // a failed sweep has no throughput to compare
		return 9.9
	}
	return math.Abs(100*(sat[router.NoX]/best-1) - 9.9)
}

func (w *sweepWorkload) autoShards() int { return network.AutoShards(64) }
