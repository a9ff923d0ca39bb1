package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/telemetry"
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
func (k SystemKind) Datapath() physical.Datapath { return datapath(k.System().Concentration) }

// datapath returns the tile of a system whose routers serve concentration
// cores: the CMesh's radix-8 point above one core per router, the baseline
// mesh's otherwise.
func datapath(concentration int) physical.Datapath {
	if concentration > 1 {
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
	sc := cfg.synthetic()
	res, err := RunSynthetic(sc)
	if err != nil {
		return RunResult{}, err
	}
	res.Label = fmt.Sprintf("%v/%s", cfg.Kind, sc.Pattern)
	return res, nil
}

// synthetic maps the point onto the synthetic driver: the system's router
// grid and concentration, its energy model, and the point's recorder
// whatever label the driver would give it.
func (cfg FutureConfig) synthetic() SyntheticConfig {
	cfg.fill()
	sys, model := cfg.Kind.System(), cfg.Kind.EnergyModel()
	sc := SyntheticConfig{Arch: cfg.Arch, Topo: sys.Grid, concentration: sys.Concentration,
		Pattern: cfg.Pattern, RateMBps: cfg.RateMBps, Seed: cfg.Seed, Model: &model, Shards: cfg.Shards,
		WarmupCycles: cfg.WarmupCycles, MeasureCycles: cfg.MeasureCycles, DrainCycles: cfg.DrainCycles,
		Progress: cfg.Progress}
	if rec := cfg.Recorder; rec != nil {
		sc.NewRecorder = func(string) *telemetry.Recorder { return rec }
	}
	return sc
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
