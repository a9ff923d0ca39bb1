// Command noxphys prints the physical-implementation results: Table 2's
// router clock periods (with the §6.1 relative speedups) and Figure 13's
// floorplan area comparison.
//
// Usage:
//
//	noxphys              # Table 2
//	noxphys -floorplan   # Figure 13
//	noxphys -all
package main

import (
	"flag"
	"fmt"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	cli := telemetry.NewCLI("noxphys", telemetry.ProfileFlags)
	var (
		floorplan = flag.Bool("floorplan", false, "print the Figure 13 floorplan comparison")
		all       = flag.Bool("all", false, "print both Table 2 and Figure 13")
	)
	_, _, stop := cli.Start()
	defer stop()

	if !*floorplan || *all {
		fmt.Print(harness.FormatTable2())
	}
	if *floorplan || *all {
		if *all {
			fmt.Println()
		}
		fmt.Print(harness.FormatFloorplan())
	}
}
