// Network-level contract tests for the kernel's quiescence oracle: every
// real component — routers, NIs, links — must honor the quiescence contract
// under a workload that crosses sleep/wake boundaries on every burst.
package network

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/router"
)

// TestContractOracleCleanOnAllArchs drives the bursty workload with the
// kernel's quiescence oracle armed: a parked component whose state changes
// under eager evaluation panics the run, so a clean pass is the proof that
// every shipped Quiet implementation is honest. The fingerprint
// must also match the unchecked run — the oracle observes, never perturbs.
func TestContractOracleCleanOnAllArchs(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	for _, arch := range router.Archs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			t.Parallel()
			want, _ := driveBursty(t, Config{Topo: topo, Arch: arch}, 0xC01)
			got, _ := driveBursty(t, Config{Topo: topo, Arch: arch, Oracle: true}, 0xC01)
			if got != want {
				t.Fatal("oracle mode changed observable results")
			}
		})
	}
}

// TestContractOracleRejectsSharding pins the serial-only restriction at the
// network layer.
func TestContractOracleRejectsSharding(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Oracle with Shards > 1 did not panic")
		}
	}()
	New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Oracle: true, Shards: 4})
}
