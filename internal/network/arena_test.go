package network

import (
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
)

// TestArenaLeakInvariant is the flit-pool leak invariant: once all traffic
// has drained, every pooled flit the network materialized — injection flits,
// XOR superpositions, decode-path copies, register recoveries — must have
// been returned to an arena. A nonzero outstanding count after Drain means
// some lifetime rule in core.InputPort or the NI release path is wrong.
// Checked serial and sharded (flits migrate between shard arenas, so only
// the sum is meaningful) on every architecture.
func TestArenaLeakInvariant(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	for _, arch := range router.Archs {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/shards%d", arch, shards), func(t *testing.T) {
				n := New(Config{Topo: topo, Arch: arch, Shards: shards})
				defer n.Close()
				rng := sim.NewRNG(uint64(arch)*13 + uint64(shards) + 5)
				for round := 0; round < 250; round++ {
					for id := 0; id < topo.Nodes(); id++ {
						if rng.Bernoulli(0.25) {
							dst := noc.NodeID(rng.Intn(topo.Nodes()))
							if dst == noc.NodeID(id) {
								continue
							}
							length := []int{1, 1, 1, 4, 9}[rng.Intn(5)]
							n.Inject(noc.NodeID(id), dst, length, 0)
						}
					}
					n.Step()
				}
				if !n.Drain(30000) {
					t.Fatalf("not drained: %d outstanding packets", n.Outstanding())
				}
				if got := n.ArenaOutstanding(); got != 0 {
					t.Errorf("%d pooled flits leaked after drain", got)
				}
			})
		}
	}
}

// TestArenaLeakConcentrated repeats the leak invariant on the radix-8
// concentrated mesh, where up to seven colliders meet at a local port and
// the superposition constituent sets are largest.
func TestArenaLeakConcentrated(t *testing.T) {
	n := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Concentration: 4, Arch: router.NoX})
	defer n.Close()
	for round := 0; round < 10; round++ {
		for c := 0; c < 8; c++ {
			n.Inject(noc.NodeID(c), 32, 2, 0)
		}
		n.Step()
	}
	if !n.Drain(20000) {
		t.Fatalf("not drained: %d", n.Outstanding())
	}
	if got := n.ArenaOutstanding(); got != 0 {
		t.Errorf("%d pooled flits leaked after drain", got)
	}
}

// TestLaneEquivalence pins the devirtualized dispatch lanes to the generic
// interface walk: the typed-lane serial step must be observably identical —
// same deliveries at the same cycles, same event counters, same final cycle
// — to the oracle, the reference stepper that dispatches every component
// through the sim.Clocked interface, for every architecture.
func TestLaneEquivalence(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			lanesFP, lanesC := driveBursty(t, Config{Topo: topo, Arch: arch}, 0xD15)
			refFP, refC := driveBursty(t, Config{Topo: topo, Arch: arch, Oracle: true}, 0xD15)
			if lanesFP != refFP {
				t.Errorf("lane dispatch diverged from interface dispatch:\nlanes: %s\nref:   %s", lanesFP, refFP)
			}
			if lanesC != refC {
				t.Errorf("counters diverged:\nlanes: %+v\nref:   %+v", lanesC, refC)
			}
		})
	}
}
