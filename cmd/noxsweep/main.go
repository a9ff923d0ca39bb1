// Command noxsweep regenerates Figures 8, 9 and 12: latency and
// energy-delay^2 versus offered injection bandwidth, per traffic pattern, for
// all four router architectures, and the power breakdown at 2 GB/s/node
// uniform.
//
// Each panel prints the Figure 8 latency table, the Figure 9 ED^2 table
// and the saturation lines, all from one sweep; the uniform panel then
// prints Figure 12 from its 2000 MB/s/node rung.
//
// Usage:
//
//	noxsweep                           # all patterns
//	noxsweep -pattern uniform
//	noxsweep -fast                     # reduced cycles for a quick look
package main

import (
	"flag"
	"fmt"

	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func main() {
	cli := telemetry.NewCLI("noxsweep", telemetry.LiveFlags|telemetry.ProfileFlags)
	seed, shards := cli.Seed(0xA11CE), cli.Shards(0)
	cli.Parallel()
	var (
		pattern = flag.String("pattern", "all", "traffic pattern or 'all'")
		fast    = flag.Bool("fast", false, "reduced warmup/measurement for a quick look")
		csv     = flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	)
	sess, pool, stop := cli.Start()
	defer stop()

	patterns := traffic.PatternNames
	if *pattern != "all" {
		patterns = []string{*pattern}
	}

	for _, pat := range patterns {
		base := harness.SyntheticConfig{Pattern: pat, Seed: *seed, Shards: *shards,
			Progress: sess.Sampler(), NewRecorder: sess.NewRecorder}
		if *fast {
			base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 1500, 4000, 15000
		}
		points, err := harness.SweepSynthetic(base, harness.DefaultRates(pat), pool)
		if err != nil {
			cli.Fail(err)
		}
		if *csv {
			fmt.Print(harness.SweepCSV(pat, points))
			continue
		}
		fmt.Print(harness.FormatSweepLatency(pat, points))
		fmt.Print(harness.FormatSweepED2(pat, points))
		fmt.Print(harness.FormatSaturation(pat, points))
		if fig12 := harness.FormatPowerBreakdown(pat, points); fig12 != "" {
			fmt.Print("\n" + fig12)
		}
		fmt.Println()
	}
}
