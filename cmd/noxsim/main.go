// Command noxsim runs a single synthetic-traffic simulation of one router
// architecture and reports latency, throughput, and energy — the basic
// experiment unit behind Figures 8, 9, and 12.
//
// Usage:
//
//	noxsim -arch nox -pattern uniform -rate 2000
//	noxsim -print-config          # Table 1
//	noxsim -arch specfast -pattern selfsimilar -rate 800 -flits 1
package main

import (
	"flag"
	"fmt"

	"repro/internal/harness"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/telemetry"
)

func main() {
	cli := telemetry.NewCLI("noxsim", telemetry.LiveFlags|telemetry.ProfileFlags)
	seed, shards := cli.Seed(0xA11CE), cli.Shards(0)
	var (
		archName    = flag.String("arch", "nox", "router architecture: nonspec|specfast|specaccurate|nox")
		pattern     = flag.String("pattern", "uniform", "traffic pattern: uniform|transpose|bitcomp|bitrev|shuffle|tornado|neighbor|hotspot|selfsimilar")
		rate        = flag.Float64("rate", 1000, "offered injection bandwidth (MB/s/node)")
		flits       = flag.Int("flits", 1, "packet length in flits")
		warmup      = flag.Int64("warmup", 3000, "warmup cycles")
		measure     = flag.Int64("measure", 10000, "measurement cycles")
		printConfig = flag.Bool("print-config", false, "print Table 1 system parameters and exit")
		tracePkts   = flag.Int("trace", 0, "print the first N delivered packets")
		ckptPath    = flag.String("checkpoint", "", "write a resumable full-state checkpoint to this file every -checkpoint-every cycles (atomic overwrite)")
		ckptEvery   = flag.Int64("checkpoint-every", 5000, "checkpoint period in main-loop cycles (with -checkpoint)")
		restore     = flag.String("restore", "", "resume from a checkpoint file written by -checkpoint (run parameters must match the checkpointed run)")
	)
	sess, _, stop := cli.Start()
	defer stop()

	if *printConfig {
		fmt.Print(harness.Table1())
		return
	}
	if *flits < 1 {
		cli.Fail(fmt.Errorf("-flits must be >= 1 (got %d)", *flits))
	}
	arch, err := router.ArchByName(*archName)
	if err != nil {
		cli.Fail(err)
	}
	cfg := harness.SyntheticConfig{
		Arch:          arch,
		Pattern:       *pattern,
		RateMBps:      *rate,
		PacketFlits:   *flits,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
		Shards:        *shards,
		Progress:      sess.Sampler(),
		NewRecorder:   sess.NewRecorder,

		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		RestorePath:     *restore,
	}
	if *tracePkts > 0 {
		remaining := *tracePkts
		cfg.Observe = func(p *noc.Packet, cycle int64) {
			if remaining <= 0 {
				return
			}
			remaining--
			fmt.Printf("pkt %-6d %2d -> %-2d  %d flits  inject@%-6d deliver@%-6d latency %d cycles\n",
				p.ID, p.Src, p.Dst, p.Length, p.CreateCycle, p.DeliverCycle, p.Latency())
		}
	}
	res, err := harness.RunSynthetic(cfg)
	if err != nil {
		cli.Fail(err)
	}
	sess.Sampler().Done(*warmup + *measure)

	fmt.Printf("architecture:        %s (clock %.2f ns)\n", res.Arch, res.PeriodNs)
	fmt.Printf("pattern:             %s, %d-flit packets\n", *pattern, *flits)
	fmt.Printf("offered / accepted:  %.0f / %.0f MB/s/node\n", res.OfferedMBps, res.AcceptedMBps)
	fmt.Printf("mean latency:        %.2f ns (%.1f cycles), p50 %.2f, p99 %.2f, max %.2f ns\n",
		res.MeanLatencyNs, res.MeanLatencyCycles, res.P50LatencyNs, res.P99LatencyNs, res.MaxLatencyNs)
	fmt.Printf("saturated:           %v\n", res.Saturated)
	fmt.Printf("network power:       %.1f mW (link share %.1f%%)\n", res.PowerMW, 100*res.Energy.LinkShare())
	fmt.Printf("packet energy:       %.1f pJ\n", res.PacketEnergyPJ)
	fmt.Printf("energy-delay^2:      %.0f pJ*ns^2\n", res.EnergyDelay2)
	c := res.Window
	fmt.Printf("events: xbar=%d link=%d invalid=%d collisions=%d encoded=%d aborts=%d wasted=%d decode=%d\n",
		c.Xbar, c.LinkFlit, c.LinkInvalid, c.Collisions, c.EncodedFlits, c.Aborts, c.WastedCycles, c.Decode)
}
