// Command noxablate runs the ablation studies DESIGN.md calls out: the
// paper's fixed design choices (Table 1's 4-flit buffers, round-robin
// arbitration, the XOR fabric's energy premium) varied one at a time.
//
// Usage:
//
//	noxablate                     # all ablations
//	noxablate -study buffers
//	noxablate -study arbiter -rate 2200
//	noxablate -study xorcost
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/telemetry"
)

func main() {
	cli := telemetry.NewCLI("noxablate", telemetry.LiveFlags|telemetry.ProfileFlags)
	shards := cli.Shards(0)
	cli.Parallel()
	var (
		study = flag.String("study", "all", "buffers | arbiter | xorcost | all")
		rate  = flag.Float64("rate", 2000, "offered uniform load (MB/s/node)")
	)
	_, pool, stop := cli.Start()
	defer stop()

	archs := []router.Arch{router.SpecAccurate, router.NoX}
	if *study == "buffers" || *study == "all" {
		depths := []int{2, 3, 4, 6, 8}
		pts := harness.AblateBufferDepth(depths, *rate, archs, pool, *shards)
		fmt.Print(harness.FormatAblation(
			fmt.Sprintf("Ablation: input buffer depth (uniform @ %.0f MB/s/node; Table 1 uses 4)", *rate), pts))
		fmt.Println()
	}
	if *study == "arbiter" || *study == "all" {
		pts := harness.AblateArbiter(*rate, archs, pool, *shards)
		fmt.Print(harness.FormatAblation(
			fmt.Sprintf("Ablation: output arbiter (uniform @ %.0f MB/s/node)", *rate), pts))
		fmt.Println()
	}
	if *study == "xorcost" || *study == "all" {
		factors := []float64{1.0, 1.03, 1.06, 1.12, 1.25}
		rel, err := harness.AblateXORCost(factors, *rate, pool, *shards)
		if err != nil {
			cli.Fail(err)
		}
		fmt.Printf("Ablation: XOR switch energy premium (uniform @ %.0f MB/s/node)\n", *rate)
		fmt.Printf("%-10s %s\n", "factor", "Spec-Accurate power relative to NoX")
		keys := make([]float64, 0, len(rel))
		for f := range rel {
			keys = append(keys, f)
		}
		sort.Float64s(keys)
		for _, f := range keys {
			fmt.Printf("%-10.2f %+.1f%%\n", f, 100*(rel[f]-1))
		}
	}
}
