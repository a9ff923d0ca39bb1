// Command noxapp regenerates Figures 10 and 11: application-trace latency
// and energy-delay^2 for all four router architectures, replaying
// synthesized cache-coherence traces on two physical networks.
//
// Usage:
//
//	noxapp                       # both figures, all workloads
//	noxapp -figure 11 -workload tpcc
//	noxapp -cpu-cycles 20000     # shorter traces
package main

import (
	"errors"
	"flag"
	"fmt"

	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	cli := telemetry.NewCLI("noxapp", telemetry.LiveFlags|telemetry.ProfileFlags)
	seed, shards := cli.Seed(1234), cli.Shards(0)
	cli.Parallel()
	var (
		figure    = flag.Int("figure", 0, "figure to regenerate: 10 (latency), 11 (energy-delay^2), 0 = both")
		workload  = flag.String("workload", "all", "workload name or 'all'")
		cpuCycles = flag.Int64("cpu-cycles", 40000, "trace length in 3 GHz CPU cycles")
		csv       = flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	)
	sess, pool, stop := cli.Start()
	defer stop()
	if *figure != 0 && *figure != 10 && *figure != 11 {
		cli.Fail(errors.New("-figure must be 0, 10 or 11"))
	}
	if *cpuCycles < 1 {
		cli.Fail(fmt.Errorf("-cpu-cycles must be >= 1 (got %d)", *cpuCycles))
	}

	workloads := trace.Workloads
	if *workload != "all" {
		w, err := trace.WorkloadByName(*workload)
		if err != nil {
			cli.Fail(err)
		}
		workloads = []trace.Workload{w}
	}

	var results []map[router.Arch]harness.AppResult
	topo := harness.Table1().Topo
	for _, w := range workloads {
		tr := trace.Generate(w, topo, *cpuCycles, *seed)
		fmt.Printf("replaying %-8s (%6d packets, offered %6.0f MB/s/node)\n",
			w.Name, len(tr.Events), tr.MeanInjectionMBps())
		results = append(results, harness.RunAppAllArchs(tr, 0, pool, *shards,
			harness.Telemetry{Progress: sess.Sampler(), NewRecorder: sess.NewRecorder},
			harness.AppCheckpoint{}))
	}
	fmt.Println()
	if *csv {
		fmt.Print(harness.AppCSV(results))
		return
	}
	if *figure == 0 || *figure == 10 {
		fmt.Print(harness.FormatAppLatency(results))
		fmt.Println()
	}
	if *figure == 0 || *figure == 11 {
		fmt.Print(harness.FormatAppED2(results))
	}
}
