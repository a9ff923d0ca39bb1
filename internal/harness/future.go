package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// This file implements the paper's future-work study (§8): the same four
// router architectures on a higher-radix concentrated mesh. 64 cores are
// arranged either as the baseline 8x8 mesh (radix-5 routers, 2 mm
// channels) or as a 4x4 CMesh (radix-8 routers, 4 cores each, 4 mm
// channels). The paper's hypothesis: NoX "may derive more benefit given
// their higher arbitration latencies, their longer channels, and the fixed
// cost of the NoX decoding hardware."

// SystemKind selects the 64-core organization under study.
type SystemKind int

// The organizations of the future-work comparison: the paper's two
// 64-core points plus the larger meshes the sharded simulation kernel
// makes practical to sweep.
const (
	// Mesh8x8 is the paper's baseline: one core per radix-5 router.
	Mesh8x8 SystemKind = iota
	// CMesh4x4 is the concentrated mesh: four cores per radix-8 router.
	CMesh4x4
	// Mesh16x16 scales the baseline organization to 256 cores.
	Mesh16x16
	// Mesh32x32 scales it to 1024 cores.
	Mesh32x32
)

// String names the system kind.
func (k SystemKind) String() string {
	switch k {
	case CMesh4x4:
		return "CMesh 4x4 (radix 8)"
	case Mesh16x16:
		return "Mesh 16x16 (radix 5)"
	case Mesh32x32:
		return "Mesh 32x32 (radix 5)"
	default:
		return "Mesh 8x8 (radix 5)"
	}
}

// System returns the noc-level system description.
func (k SystemKind) System() noc.System {
	switch k {
	case CMesh4x4:
		return noc.System{Grid: noc.Topology{Width: 4, Height: 4}, Concentration: 4}
	case Mesh16x16:
		return noc.MeshSystem(noc.Topology{Width: 16, Height: 16})
	case Mesh32x32:
		return noc.MeshSystem(noc.Topology{Width: 32, Height: 32})
	default:
		return noc.MeshSystem(noc.Topology{Width: 8, Height: 8})
	}
}

// Datapath returns the implementation point's component delays. The large
// meshes keep the baseline tile (radix-5 routers, 2 mm channels) — they
// grow the grid, not the router.
func (k SystemKind) Datapath() physical.Datapath {
	if k == CMesh4x4 {
		return physical.CMeshDatapath()
	}
	return physical.MeshDatapath()
}

// ParseSystemKinds parses a comma-separated system list (e.g.
// "mesh8x8,cmesh4x4,mesh16x16,mesh32x32") into kinds.
func ParseSystemKinds(s string) ([]SystemKind, error) {
	names := map[string]SystemKind{
		"mesh8x8":   Mesh8x8,
		"cmesh4x4":  CMesh4x4,
		"mesh16x16": Mesh16x16,
		"mesh32x32": Mesh32x32,
	}
	var kinds []SystemKind
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(strings.ToLower(f))
		if f == "" {
			continue
		}
		k, ok := names[f]
		if !ok {
			return nil, fmt.Errorf("harness: unknown system %q (want mesh8x8, cmesh4x4, mesh16x16, or mesh32x32)", f)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, errors.New("harness: empty system list")
	}
	return kinds, nil
}

// EnergyModel returns the per-event energies for the system: CMesh pays
// doubled channel energy (4 mm) and a wider crossbar/arbiter.
func (k SystemKind) EnergyModel() power.Model {
	m := power.DefaultModel()
	if k == CMesh4x4 {
		m.LinkPJ *= 2
		m.XbarPJ *= 1.5
		m.ArbPJ *= 1.3
	}
	return m
}

// FutureConfig parameterizes one future-work run.
type FutureConfig struct {
	Kind     SystemKind
	Arch     router.Arch
	RateMBps float64
	// Pattern: "uniform" or "selfsimilar" over cores (coordinate patterns
	// are translated through the virtual core grid).
	Pattern       string
	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
	Seed          uint64
	// Shards selects the execution mode (see network.Config): 0 = auto,
	// which keeps the 64-core systems serial and shards the 16x16/32x32
	// meshes on multicore hosts.
	Shards int
	// Progress, when set, receives per-cycle ticks and inject/deliver counts
	// for live telemetry. Nil costs a nil check per hook.
	Progress *telemetry.Sampler
	// Recorder, when set, is this run's flight recorder: a wedged drain
	// triggers it, and the run's epilogue replays the run to dump the
	// failure window.
	Recorder *telemetry.Recorder
}

func (c *FutureConfig) fill() {
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 2000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 6000
	}
	if c.DrainCycles == 0 {
		c.DrainCycles = 20000
	}
	if c.Seed == 0 {
		c.Seed = 0xF07E
	}
}

// RunFuture executes one (system, architecture, rate) point. Offered rates
// are per core in MB/s, converted with the system's own clock period, so
// mesh and CMesh face identical absolute load.
func RunFuture(cfg FutureConfig) (RunResult, error) {
	return runFuture(cfg, nil)
}

// runFuture is RunFuture with the network probed by pr (nil for none): the
// flight recorder's replay runs the point again under its probe.
func runFuture(cfg FutureConfig, pr *probe.Probe) (RunResult, error) {
	cfg.fill()
	sys := cfg.Kind.System()
	dp := cfg.Kind.Datapath()
	model := cfg.Kind.EnergyModel()
	periodNs := dp.ClockPeriodNs(cfg.Arch)
	pktRate := FlitsPerNodeCycle(cfg.RateMBps, periodNs)
	if pktRate >= 1 {
		return RunResult{}, fmt.Errorf("harness: rate %.0f MB/s/core exceeds one flit per cycle on %v: %w", cfg.RateMBps, cfg.Kind, ErrRateInfeasible)
	}

	var pattern traffic.Pattern
	selfSimilar := cfg.Pattern == "selfsimilar"
	virtual := sys.VirtualTopology()
	if selfSimilar || cfg.Pattern == "uniform" {
		pattern = traffic.Uniform{Topo: virtual}
	} else {
		var err error
		pattern, err = traffic.ByName(cfg.Pattern, virtual)
		if err != nil {
			return RunResult{}, err
		}
	}

	cfg.Recorder.SetPeriodNs(periodNs)
	var obs func(cycle int64, active int)
	if cfg.Progress != nil {
		obs = cfg.Progress.Observe
	}
	net := network.New(network.Config{
		Topo:          sys.Grid,
		Concentration: sys.Concentration,
		Arch:          cfg.Arch,
		Shards:        cfg.Shards,
		Probe:         pr,
		Observer:      obs,
	})
	defer net.Close()
	col := stats.NewCollector(cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles)
	net.OnDeliver = col.OnDeliver
	if cfg.Progress != nil {
		prog := cfg.Progress
		net.OnDeliver = func(p *noc.Packet, cycle int64) {
			col.OnDeliver(p, cycle)
			prog.CountDeliver(1, int64(p.Length))
		}
		prog.RunStarted()
	}

	cores := sys.Cores()
	base := sim.NewRNG(cfg.Seed)
	procs := make([]traffic.Process, cores)
	dests := make([]*sim.RNG, cores)
	for i := range procs {
		r := base.Fork(uint64(i))
		if selfSimilar {
			procs[i] = traffic.NewSelfSimilar(pktRate, r)
		} else {
			procs[i] = &traffic.Bernoulli{P: pktRate, RNG: r}
		}
		dests[i] = base.Fork(uint64(1000 + i))
	}

	var start power.Counters
	total := cfg.WarmupCycles + cfg.MeasureCycles
	// A flight-recorder replay stops once its recorder is Done.
	for cyc := int64(0); cyc < total && !cfg.Recorder.Done(cyc); cyc++ {
		if cyc == cfg.WarmupCycles {
			start = *net.Counters()
		}
		injected := 0
		for c := 0; c < cores; c++ {
			if !procs[c].Tick() {
				continue
			}
			src := noc.NodeID(c)
			// Patterns operate on the virtual core grid; translate back.
			vdst := pattern.Dest(sys.VirtualFromCore(src), dests[c])
			dst := sys.CoreFromVirtual(vdst)
			if dst == src {
				continue
			}
			p := net.Inject(src, dst, 1, 0)
			col.OnCreate(p, cyc)
			injected++
		}
		if injected > 0 {
			cfg.Progress.CountInject(int64(injected), int64(injected))
		}
		net.Step()
		cfg.Progress.Tick(cyc)
	}
	window := net.Counters().Sub(start)

	deadline := net.Cycle() + cfg.DrainCycles
	for !col.Complete() && net.Cycle() < deadline && !cfg.Recorder.Done(net.Cycle()) {
		if net.Idle() {
			if out := net.Outstanding(); out > 0 {
				cfg.Recorder.Trigger(net.Cycle(),
					fmt.Sprintf("deadlock: network fully quiescent with %d packets outstanding", out))
			}
			net.FastForwardIdle(deadline - net.Cycle())
			break
		}
		net.Step()
		cfg.Progress.Tick(net.Cycle())
	}

	accepted := col.AcceptedFlitsPerNodeCycle(cores)
	res := RunResult{
		Arch:              cfg.Arch,
		Label:             fmt.Sprintf("%v/%s", cfg.Kind, cfg.Pattern),
		Nodes:             cores,
		PeriodNs:          periodNs,
		OfferedMBps:       cfg.RateMBps,
		AcceptedMBps:      MBpsPerNode(accepted, periodNs),
		MeanLatencyCycles: col.MeanLatencyCycles(),
		DeliveredPackets:  col.WindowPackets(),
		Window:            window,
	}
	res.MeanLatencyNs = res.MeanLatencyCycles * periodNs
	res.P50LatencyNs, res.P95LatencyNs, res.P99LatencyNs = col.LatencyPercentilesNs(periodNs)
	res.Saturated = !col.Complete() ||
		float64(col.WindowFlits()) < 0.92*float64(col.CreatedFlits())
	res.Energy = model.Energy(window, cfg.Arch == router.NoX)
	if col.WindowPackets() > 0 {
		res.PacketEnergyPJ = res.Energy.TotalPJ() / float64(col.WindowPackets())
	}
	res.PowerMW = res.Energy.TotalPJ() / (float64(cfg.MeasureCycles) * periodNs)
	res.EnergyDelay2 = edp2(res.PacketEnergyPJ, res.MeanLatencyNs)

	cfg.Progress.RunDone(cfg.Arch.String(), window)
	if cfg.Recorder.Triggered() {
		replay := func(rr *telemetry.Recorder) {
			rc := cfg
			rc.Shards, rc.Progress, rc.Recorder = 1, nil, rr
			replayStarts(rr)
			if _, err := runFuture(rc, rr.Probe()); err != nil {
				panic(err)
			}
		}
		if _, err := cfg.Recorder.Flush(replay, net.WriteDiagnostic); err != nil {
			fmt.Fprintln(os.Stderr, "harness:", err)
		}
	}
	return res, nil
}

// FutureStudy sweeps the selected systems at the given per-core rates and
// reports NoX's gap to Spec-Accurate on each — the §8 hypothesis test.
type FutureStudy struct {
	Kinds   []SystemKind
	Rates   []float64
	Results map[SystemKind]map[float64]map[router.Arch]RunResult
}

// RunFutureStudy executes the paper's two-system comparison at the given
// offered rates. It is RunFutureStudyKinds fixed to the §8 organizations.
func RunFutureStudy(rates []float64, pattern string, seed uint64, pool *exp.Pool) (*FutureStudy, error) {
	return RunFutureStudyKinds([]SystemKind{Mesh8x8, CMesh4x4}, rates, pattern, seed, pool, 0, Telemetry{})
}

// RunFutureStudyKinds executes the comparison over an arbitrary system
// list — including the 16x16 and 32x32 meshes the sharded kernel makes
// tractable. Rates a system's clock cannot offer (ErrRateInfeasible)
// simply leave a hole in the table, matching the serial study; any other
// failure aborts the whole study. Every (system, rate, architecture)
// point is independent, so a multi-worker pool fans them all out; shards
// additionally parallelizes within each simulation (0 = auto). tel threads
// the tool's live telemetry into each point (Telemetry{} disables it).
func RunFutureStudyKinds(kinds []SystemKind, rates []float64, pattern string, seed uint64, pool *exp.Pool, shards int, tel Telemetry) (*FutureStudy, error) {
	type outcome struct {
		res RunResult
		err error
	}
	slugs := map[SystemKind]string{Mesh8x8: "mesh8x8", CMesh4x4: "cmesh4x4", Mesh16x16: "mesh16x16", Mesh32x32: "mesh32x32"}
	perKind := len(rates) * len(router.Archs)
	outs, err := exp.Map(context.Background(), pool, len(kinds)*perKind,
		func(_ context.Context, i int) (outcome, error) {
			kind := kinds[i/perKind]
			rate := rates[i%perKind/len(router.Archs)]
			arch := router.Archs[i%len(router.Archs)]
			res, err := RunFuture(FutureConfig{Kind: kind, Arch: arch, RateMBps: rate, Pattern: pattern, Seed: seed, Shards: shards,
				Progress: tel.Progress,
				Recorder: tel.recorder(fmt.Sprintf("future-%s-%s-%.0fMBps", slugs[kind], arch, rate))})
			return outcome{res, err}, nil
		})
	if err != nil {
		return nil, err
	}

	st := &FutureStudy{Kinds: kinds, Rates: rates, Results: map[SystemKind]map[float64]map[router.Arch]RunResult{}}
	i := 0
	for _, kind := range kinds {
		st.Results[kind] = map[float64]map[router.Arch]RunResult{}
		for _, rate := range rates {
			byArch := map[router.Arch]RunResult{}
			for _, arch := range router.Archs {
				o := outs[i]
				i++
				if o.err != nil {
					if errors.Is(o.err, ErrRateInfeasible) {
						continue
					}
					return nil, o.err
				}
				byArch[arch] = o.res
			}
			st.Results[kind][rate] = byArch
		}
	}
	return st, nil
}

// NoXGapVsSpecAccurate returns NoX's mean latency relative to
// Spec-Accurate's (values below 1 mean NoX is faster) per system at a
// rate, skipping saturated points.
func (st *FutureStudy) NoXGapVsSpecAccurate(kind SystemKind, rate float64) (float64, bool) {
	byArch := st.Results[kind][rate]
	nox, okN := byArch[router.NoX]
	sa, okS := byArch[router.SpecAccurate]
	if !okN || !okS || nox.Saturated || sa.Saturated {
		return 0, false
	}
	return nox.MeanLatencyNs / sa.MeanLatencyNs, true
}

// FormatFutureStudy renders the §8 comparison for whatever systems the
// study covered.
func FormatFutureStudy(st *FutureStudy) string {
	kinds := st.Kinds
	if len(kinds) == 0 {
		kinds = []SystemKind{Mesh8x8, CMesh4x4}
	}
	var b strings.Builder
	b.WriteString("Future work (§8): router architectures across mesh organizations\n")
	for _, kind := range kinds {
		dp := kind.Datapath()
		fmt.Fprintf(&b, "\n%s — clocks:", kind)
		for _, a := range router.Archs {
			fmt.Fprintf(&b, "  %s %.2fns", a, dp.ClockPeriodNs(a))
		}
		fmt.Fprintf(&b, "\n  NoX clock penalty vs Spec-Accurate: %.1f%% (decode is a fixed cost)\n",
			100*dp.NoXPenaltyVsSpecAccurate())
		fmt.Fprintf(&b, "%12s", "MB/s/core")
		for _, a := range router.Archs {
			fmt.Fprintf(&b, " %16s", a)
		}
		b.WriteString("\n")
		for _, rate := range st.Rates {
			fmt.Fprintf(&b, "%12.0f", rate)
			for _, a := range router.Archs {
				r, ok := st.Results[kind][rate][a]
				switch {
				case !ok:
					fmt.Fprintf(&b, " %16s", "-")
				case r.Saturated:
					fmt.Fprintf(&b, " %16s", "saturated")
				default:
					fmt.Fprintf(&b, " %13.2f ns", r.MeanLatencyNs)
				}
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\nNoX latency relative to Spec-Accurate (lower is better):\n")
	short := map[SystemKind]string{Mesh8x8: "mesh", CMesh4x4: "cmesh", Mesh16x16: "mesh16", Mesh32x32: "mesh32"}
	for _, rate := range st.Rates {
		fmt.Fprintf(&b, "%12.0f", rate)
		for _, kind := range kinds {
			if gap, ok := st.NoXGapVsSpecAccurate(kind, rate); ok {
				fmt.Fprintf(&b, "   %s %.3f", short[kind], gap)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
