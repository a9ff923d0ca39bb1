// Command noxfuture runs the paper's §8 future-work study: the four router
// architectures on 64 cores organized as the baseline 8x8 mesh versus a
// 4x4 concentrated mesh with radix-8 routers and 4 mm channels. The
// hypothesis under test: NoX derives more benefit at higher radix because
// arbitration latencies and channels grow while its decode cost is fixed.
//
// Beyond the paper's two organizations, -systems adds the 16x16 (256-core)
// and 32x32 (1024-core) meshes that the sharded simulation kernel makes
// practical to sweep.
//
// Usage:
//
//	noxfuture
//	noxfuture -pattern selfsimilar -rates 400,800,1200
//	noxfuture -systems mesh16x16,mesh32x32 -rates 400,800
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	cli := telemetry.NewCLI("noxfuture", telemetry.LiveFlags|telemetry.ProfileFlags)
	seed, shards := cli.Seed(0xF07E), cli.Shards(0)
	cli.Parallel()
	var (
		pattern  = flag.String("pattern", "uniform", "traffic pattern over cores (uniform|selfsimilar|transpose|...)")
		ratesStr = flag.String("rates", "400,800,1200,1600,2000,2400", "comma-separated offered rates (MB/s/core)")
		systems  = flag.String("systems", "mesh8x8,cmesh4x4", "comma-separated systems: mesh8x8|cmesh4x4|mesh16x16|mesh32x32")
	)
	sess, pool, stop := cli.Start()
	defer stop()

	var rates []float64
	for _, f := range strings.Split(*ratesStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			cli.Fail(fmt.Errorf("bad rate: %w", err))
		}
		rates = append(rates, v)
	}

	kinds, err := harness.ParseSystemKinds(*systems)
	if err != nil {
		cli.Fail(err)
	}

	st, err := harness.RunFutureStudyKinds(kinds, rates, *pattern, *seed, pool, *shards,
		harness.Telemetry{Progress: sess.Sampler(), NewRecorder: sess.NewRecorder})
	if err != nil {
		cli.Fail(err)
	}
	fmt.Print(harness.FormatFutureStudy(st))
}
