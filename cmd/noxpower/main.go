// Command noxpower regenerates Figure 12: the network dynamic power
// breakdown under 2 GB/s/node single-flit uniform random traffic. As in
// the paper, an architecture that cannot sustain the load (Spec-Fast) is
// reported but not broken down.
//
// Usage:
//
//	noxpower
//	noxpower -rate 1500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/telemetry"
)

func main() {
	cli := telemetry.NewCLI("noxpower", telemetry.ProfileFlags)
	seed, shards := cli.Seed(0xA11CE), cli.Shards(0)
	cli.Parallel()
	var (
		rate    = flag.Float64("rate", 2000, "offered load (MB/s/node); the paper uses 2 GB/s/node")
		measure = flag.Int64("measure", 10000, "measurement cycles")
	)
	_, pool, stop := cli.Start()
	defer stop()
	if *measure == 0 {
		cli.Fail(errors.New("-measure 0: 0 would select the library default (10000 cycles), not a zero window"))
	}
	runs, err := exp.Map(context.Background(), pool, len(router.Archs),
		func(_ context.Context, i int) (harness.RunResult, error) {
			return harness.RunSynthetic(harness.SyntheticConfig{
				Arch:          router.Archs[i],
				Pattern:       "uniform",
				RateMBps:      *rate,
				MeasureCycles: *measure,
				Seed:          *seed,
				Shards:        *shards,
			})
		})
	if err != nil {
		cli.Fail(err)
	}
	results := map[router.Arch]harness.RunResult{}
	for i, arch := range router.Archs {
		results[arch] = runs[i]
	}
	fmt.Print(harness.FormatPowerBreakdown(results))

	nox, sa := results[router.NoX], results[router.SpecAccurate]
	if !nox.Saturated && !sa.Saturated {
		// Compare component power (energy per wall-time), since equal
		// cycle counts span different wall-time windows across clocks.
		mw := func(r harness.RunResult, pj float64) float64 {
			return pj / (r.Energy.TotalPJ() / r.PowerMW)
		}
		fmt.Printf("\nSpec-Accurate vs NoX (paper §5.3: +4.6%% link, -2.4%% switch, +2.5%% total):\n")
		fmt.Printf("  link:   %+.1f%%\n", 100*(mw(sa, sa.Energy.LinkPJ)/mw(nox, nox.Energy.LinkPJ)-1))
		fmt.Printf("  switch: %+.1f%%\n", 100*(mw(sa, sa.Energy.XbarPJ)/mw(nox, nox.Energy.XbarPJ)-1))
		fmt.Printf("  total:  %+.1f%%\n", 100*(sa.PowerMW/nox.PowerMW-1))
	}
}
