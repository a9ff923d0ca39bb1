// Command noxsweep regenerates Figures 8 and 9: latency and energy-delay^2
// versus offered injection bandwidth, per traffic pattern, for all four
// router architectures.
//
// Each panel prints the Figure 8 latency table, the Figure 9 ED^2 table
// and the saturation lines, all from one sweep.
//
// Usage:
//
//	noxsweep                           # all patterns
//	noxsweep -pattern uniform
//	noxsweep -fast                     # reduced cycles for a quick look
package main

import (
	"errors"
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
		pattern  = flag.String("pattern", "all", "traffic pattern or 'all'")
		fast     = flag.Bool("fast", false, "reduced warmup/measurement for a quick look")
		csv      = flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
		warm     = flag.Bool("warmstart", false, "warm once per architecture at -warmrate and fork every rate point from the copy (CSV is byte-identical to the cold sweep at the same warm rate)")
		warmRate = flag.Float64("warmrate", 600, "warm-up injection rate in MB/s/node for -warmstart")
	)
	sess, pool, stop := cli.Start()
	defer stop()

	flag.Visit(func(f *flag.Flag) {
		if f.Name == "warmrate" && !*warm {
			cli.Fail(errors.New("-warmrate needs -warmstart"))
		}
	})

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
		if *warm {
			base.WarmStart = true
			base.WarmRateMBps = *warmRate
		}
		points, err := harness.SweepSynthetic(base, harness.DefaultRates(pat), pool)
		if err != nil {
			cli.Fail(err)
		}
		// A cold ladder's first rung is always feasible, so only a warm-up
		// rate no architecture can offer leaves the panel empty.
		if !anyResult(points) {
			cli.Fail(fmt.Errorf("%s: no architecture can offer the warm-up rate %g MB/s/node", pat, *warmRate))
		}
		if *csv {
			fmt.Print(harness.SweepCSV(pat, points))
			continue
		}
		fmt.Print(harness.FormatSweepLatency(pat, points))
		fmt.Print(harness.FormatSweepED2(pat, points))
		fmt.Print(harness.FormatSaturation(pat, points))
		fmt.Println()
	}
}

// anyResult reports whether any architecture produced a result at any rate.
func anyResult(points []harness.SweepPoint) bool {
	for _, p := range points {
		if len(p.Results) > 0 {
			return true
		}
	}
	return false
}
