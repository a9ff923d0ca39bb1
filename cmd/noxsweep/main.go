// Command noxsweep regenerates Figures 8 and 9: latency and energy-delay^2
// versus offered injection bandwidth, per traffic pattern, for all four
// router architectures.
//
// Usage:
//
//	noxsweep -figure 8                 # all patterns, latency panels
//	noxsweep -figure 9 -pattern uniform
//	noxsweep -fast                     # reduced cycles for a quick look
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func main() {
	cli := telemetry.NewCLI("noxsweep", telemetry.LiveFlags|telemetry.ProfileFlags)
	seed, shards := cli.Seed(0xA11CE), cli.Shards(0)
	cli.Parallel()
	var (
		figure   = flag.Int("figure", 8, "figure to regenerate: 8 (latency) or 9 (energy-delay^2)")
		pattern  = flag.String("pattern", "all", "traffic pattern or 'all'")
		fast     = flag.Bool("fast", false, "reduced warmup/measurement for a quick look")
		csv      = flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
		warm     = flag.Bool("warmstart", false, "warm once per architecture at -warmrate and fork every rate point from the copy (CSV is byte-identical to the cold sweep at the same warm rate)")
		warmRate = flag.Float64("warmrate", 600, "warm-up injection rate in MB/s/node for -warmstart")
		ckptDir  = flag.String("checkpoint", "", "persist per-architecture warm images into this directory (implies -warmstart)")
		restore  = flag.String("restore", "", "load cached warm images from this directory instead of re-warming; missing images are computed; the directory must exist (implies -warmstart)")
	)
	sess, pool, stop := cli.Start()
	defer stop()

	if *figure != 8 && *figure != 9 {
		cli.Fail(errors.New("-figure must be 8 or 9"))
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			cli.Fail(err)
		}
	}
	if *restore != "" {
		// Images missing from the directory are computed; a directory that
		// is not there would silently re-warm every architecture.
		if fi, err := os.Stat(*restore); err != nil {
			cli.Fail(err)
		} else if !fi.IsDir() {
			cli.Fail(fmt.Errorf("-restore %s: not a directory", *restore))
		}
	}

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
		if *warm || *ckptDir != "" || *restore != "" {
			base.WarmStart = true
			base.WarmRateMBps = *warmRate
			base.WarmSaveDir = *ckptDir
			base.WarmLoadDir = *restore
		}
		points, err := harness.SweepSynthetic(base, harness.DefaultRates(pat), pool)
		if err != nil {
			cli.Fail(err)
		}
		if *csv {
			fmt.Print(harness.SweepCSV(pat, points))
			continue
		}
		if *figure == 8 {
			fmt.Print(harness.FormatSweepLatency(pat, points))
		} else {
			fmt.Print(harness.FormatSweepED2(pat, points))
		}
		fmt.Print(harness.FormatSaturation(pat, points))
		fmt.Println()
	}
}
