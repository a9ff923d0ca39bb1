package harness

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/physical"
	"repro/internal/router"
)

// FormatTable2 renders the router clock periods (Table 2) from the
// physical model.
func FormatTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: Router Clock Periods\n")
	fmt.Fprintf(&b, "%-16s | %s\n", "Architecture", "Clock Period")
	for _, a := range router.Archs {
		fmt.Fprintf(&b, "%-16s | %.2f ns\n", a, physical.ClockPeriodNs(a))
	}
	b.WriteString("\nRelative to the non-speculative router (§6.1):\n")
	for _, a := range []router.Arch{router.SpecFast, router.SpecAccurate, router.NoX} {
		fmt.Fprintf(&b, "  %-14s %+.1f%% clock speedup\n", a, 100*physical.SpeedupVsNonSpec(a))
	}
	return b.String()
}

// FormatFloorplan renders the Figure 13 area comparison.
func FormatFloorplan() string {
	var b strings.Builder
	b.WriteString("Figure 13: Router Floorplanning\n")
	conv := physical.Floorplan(router.NonSpec)
	nox := physical.Floorplan(router.NoX)
	fmt.Fprintf(&b, "%-22s %8.2f x %6.2f um  = %9.0f um^2\n", "Conventional tile:", conv.WidthUm, conv.HeightUm, conv.AreaUm2())
	fmt.Fprintf(&b, "%-22s %8.2f x %6.2f um  = %9.0f um^2\n", "NoX tile:", nox.WidthUm, nox.HeightUm, nox.AreaUm2())
	fmt.Fprintf(&b, "NoX decode/mask column: +%.1f um width; tile area penalty %.1f%% (paper: 17.2%%)\n",
		physical.DecodeMaskWidthUm, 100*physical.AreaOverheadVsConventional())
	return b.String()
}

// FormatSweepLatency renders one pattern's Figure 8 panel: mean latency
// (ns) against offered bandwidth (MB/s/node), one column per architecture.
// Saturated or unreached points print as "-".
func FormatSweepLatency(pattern string, points []SweepPoint) string {
	return formatSweep("Figure 8 ["+pattern+"]: latency (ns) vs offered MB/s/node", points,
		func(r RunResult) (float64, bool) {
			return r.MeanLatencyNs, !r.Saturated && !math.IsNaN(r.MeanLatencyNs)
		}, "%8.2f")
}

// FormatSweepED2 renders one pattern's Figure 9 panel: energy-delay^2
// (pJ*ns^2) against offered bandwidth.
func FormatSweepED2(pattern string, points []SweepPoint) string {
	return formatSweep("Figure 9 ["+pattern+"]: energy-delay^2 (pJ*ns^2) vs offered MB/s/node", points,
		func(r RunResult) (float64, bool) {
			return r.EnergyDelay2, !r.Saturated && r.EnergyDelay2 > 0
		}, "%8.0f")
}

func formatSweep(title string, points []SweepPoint, metric func(RunResult) (float64, bool), cell string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%10s", "MB/s/node")
	for _, a := range router.Archs {
		fmt.Fprintf(&b, " %15s", a)
	}
	b.WriteString("\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10.0f", pt.RateMBps)
		for _, a := range router.Archs {
			r, ok := pt.Results[a]
			if !ok {
				fmt.Fprintf(&b, " %15s", "-")
				continue
			}
			v, valid := metric(r)
			if !valid {
				fmt.Fprintf(&b, " %15s", "saturated")
				continue
			}
			fmt.Fprintf(&b, " %15s", fmt.Sprintf(cell, v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatSaturation summarizes a sweep's saturation throughput per
// architecture and NoX's edge over the best competitor (§5.1 reports
// "improving network throughput by up to 9.9%").
func FormatSaturation(pattern string, points []SweepPoint) string {
	sat := SaturationMBps(points)
	var b strings.Builder
	fmt.Fprintf(&b, "Saturation throughput [%s]:\n", pattern)
	bestOther := 0.0
	for _, a := range router.Archs {
		fmt.Fprintf(&b, "  %-16s %7.0f MB/s/node\n", a, sat[a])
		if a != router.NoX && sat[a] > bestOther {
			bestOther = sat[a]
		}
	}
	if bestOther > 0 {
		fmt.Fprintf(&b, "  NoX vs best baseline: %+.1f%%\n", 100*(sat[router.NoX]/bestOther-1))
	}
	return b.String()
}

// FormatAppLatency renders Figure 10: average packet latency (ns) per
// workload per architecture.
func FormatAppLatency(results []map[router.Arch]AppResult) string {
	return formatApp("Figure 10: Application average packet latency (ns)", results,
		func(r AppResult) float64 { return r.MeanLatencyNs }, "%10.2f")
}

// FormatAppED2 renders Figure 11: energy-delay^2 per workload per
// architecture, plus the §5.2 average improvements.
func FormatAppED2(results []map[router.Arch]AppResult) string {
	s := formatApp("Figure 11: Application energy-delay^2 (pJ*ns^2)", results,
		func(r AppResult) float64 { return r.EnergyDelay2 }, "%10.0f")
	imp := GeoMeanImprovement(results)
	var b strings.Builder
	b.WriteString(s)
	b.WriteString("\nMean NoX energy-delay^2 improvement (paper: 29.5% / 34.4% / 2.7%):\n")
	for _, base := range []router.Arch{router.NonSpec, router.SpecFast, router.SpecAccurate} {
		fmt.Fprintf(&b, "  vs %-16s %+.1f%%\n", base, 100*imp[base])
	}
	return b.String()
}

func formatApp(title string, results []map[router.Arch]AppResult, metric func(AppResult) float64, cell string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, a := range router.Archs {
		fmt.Fprintf(&b, " %16s", a)
	}
	b.WriteString("\n")
	sorted := append([]map[router.Arch]AppResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i][router.NoX].Workload < sorted[j][router.NoX].Workload
	})
	for _, byArch := range sorted {
		fmt.Fprintf(&b, "%-10s", byArch[router.NoX].Workload)
		for _, a := range router.Archs {
			fmt.Fprintf(&b, " %16s", fmt.Sprintf(cell, metric(byArch[a])))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// figure12Rate is the offered load Figure 12 prices: 2 GB/s/node, a rung of
// Figure 8's uniform ladder.
const figure12Rate = 2000

// FormatPowerBreakdown renders Figure 12 from a sweep: total network dynamic
// power by component at the uniform panel's figure12Rate rung, then
// Spec-Accurate against NoX (§5.3). An architecture that cannot sustain the
// load (saturated there, or its series ended below the rung) is reported but
// not broken down, as in the paper. It returns "" for any other pattern or a
// sweep without the rung.
func FormatPowerBreakdown(pattern string, points []SweepPoint) string {
	i := slices.IndexFunc(points, func(p SweepPoint) bool { return p.RateMBps == figure12Rate })
	if pattern != "uniform" || i < 0 {
		return ""
	}
	shown := map[router.Arch]RunResult{}
	for a, r := range points[i].Results {
		if !r.Saturated {
			shown[a] = r
		}
	}
	// Component power is energy per wall-time: equal cycle counts span
	// different wall-time windows across clocks.
	mw := func(r RunResult, pj float64) float64 { return pj / (r.Energy.TotalPJ() / r.PowerMW) }

	var b strings.Builder
	b.WriteString("Figure 12: Network dynamic power @ 2 GB/s/node uniform (mW)\n")
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s %9s %9s %7s\n",
		"Architecture", "buffer", "xbar", "link", "arb", "decode", "total", "link%")
	for _, a := range router.Archs {
		r, ok := shown[a]
		if !ok {
			fmt.Fprintf(&b, "%-16s %s\n", a, "not shown (cannot sustain the load, as in the paper)")
			continue
		}
		e := r.Energy
		fmt.Fprintf(&b, "%-16s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %6.1f%%\n",
			a, mw(r, e.BufferPJ), mw(r, e.XbarPJ), mw(r, e.LinkPJ), mw(r, e.ArbPJ), mw(r, e.DecodePJ), r.PowerMW, 100*e.LinkShare())
	}
	nox, okN := shown[router.NoX]
	sa, okS := shown[router.SpecAccurate]
	if okN && okS {
		b.WriteString("\nSpec-Accurate vs NoX (paper §5.3: +4.6% link, -2.4% switch, +2.5% total):\n")
		fmt.Fprintf(&b, "  link:   %+.1f%%\n", 100*(mw(sa, sa.Energy.LinkPJ)/mw(nox, nox.Energy.LinkPJ)-1))
		fmt.Fprintf(&b, "  switch: %+.1f%%\n", 100*(mw(sa, sa.Energy.XbarPJ)/mw(nox, nox.Energy.XbarPJ)-1))
		fmt.Fprintf(&b, "  total:  %+.1f%%\n", 100*(sa.PowerMW/nox.PowerMW-1))
	}
	return b.String()
}
