package main

import (
	"math"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/physical"
	"repro/internal/router"
	"repro/internal/trace"
)

// appsWorkload is the Figure 10/11 experiment as cmd/noxapp runs it without
// flags: every application profile's coherence trace replayed open-loop on
// all four architectures, each replay on two physical networks (1-flit
// requests beside 9-flit replies).
type appsWorkload struct {
	profiles  []trace.Workload
	cpuCycles int64
	seed      uint64
	traces    []*trace.Trace
}

func newApps(seed uint64, tiny bool) *appsWorkload {
	w := &appsWorkload{profiles: trace.Workloads, cpuCycles: 10_000, seed: seed}
	if tiny {
		w.profiles, w.cpuCycles = trace.Workloads[:2], 1500
	}
	return w
}

// setup generates the traces: the simulator only ever sees these inputs.
func (w *appsWorkload) setup(tr *tracer) error {
	w.traces = w.traces[:0]
	for _, p := range w.profiles {
		sp := tr.begin("trace.Generate", p.Name)
		w.traces = append(w.traces, trace.Generate(p, harness.Table1().Topo, w.cpuCycles, w.seed))
		tr.end(sp)
	}
	return nil
}

func (w *appsWorkload) rep(tr *tracer) []cell {
	var cells []cell
	for _, t := range w.traces {
		results := map[router.Arch]harness.AppResult{}
		var panicked string
		if tr == nil {
			panicked = guard(func() {
				results = harness.RunAppAllArchs(t, 0, nil, 0, harness.Telemetry{}, harness.AppCheckpoint{})
			})
		}
		for _, arch := range router.Archs {
			id := t.Workload.Name + "/" + archKey(arch)
			if tr != nil {
				sp := tr.begin("harness.RunApp", id)
				panicked = guard(func() { results[arch] = harness.RunApp(harness.AppConfig{Arch: arch, Trace: t}) })
				tr.end(sp)
			}
			res := results[arch]
			c := cell{
				ID: id, Arch: arch, Window: res.Window, Headline: res.EnergyDelay2,
				Cycles: int64(float64(t.DurationPs) / physical.ClockPeriodPs(arch)),
				Digest: digest("%d %x %x %v %+v", res.DeliveredPkts, math.Float64bits(res.MeanLatencyNs),
					math.Float64bits(res.EnergyDelay2), res.Drained, res.Window),
				Fail: panicked,
			}
			if c.Fail == "" && !res.Drained {
				c.Fail = "undrained: trace packets outstanding at the drain limit"
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// activeShare replays every trace on NoX with a sampling probe. The two
// physical networks share the probe and it keeps the first tick of a cycle,
// so the share is the request network's.
func (w *appsWorkload) activeShare() float64 {
	var a activity
	for _, t := range w.traces {
		pr := samplingProbe()
		harness.RunApp(harness.AppConfig{Arch: router.NoX, Trace: t, Probe: pr})
		a.addSamples(pr)
	}
	return a.share(componentCount(network.Config{Arch: router.NoX}))
}

// paperGap is |mean NoX energy-delay^2 gain over Spec-Accurate - 2.7| in
// percentage points (§5.2), the mean taken across profiles.
func (w *appsWorkload) paperGap(cells []cell) float64 {
	var sum float64
	var n int
	// rep emits one cell per architecture per profile, in router.Archs order.
	for i := 0; i+len(router.Archs) <= len(cells); i += len(router.Archs) {
		nox, sa := cells[i+int(router.NoX)].Headline, cells[i+int(router.SpecAccurate)].Headline
		if sa > 0 {
			sum += 1 - nox/sa
			n++
		}
	}
	if n == 0 { // nothing replayed: no gain to compare
		return 2.7
	}
	return math.Abs(100*sum/float64(n) - 2.7)
}

func (w *appsWorkload) autoShards() int { return network.AutoShards(64) }
