package network

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// The routers drive every walk — request gathering, pops, output commits,
// Quiet — from port masks and cached FIFO heads instead of scanning their
// ports. Those are a cache of the port records, and these tests prove it: a
// router's Audit recomputes each of them from a full port scan, and it must
// agree after every commit of runs that go through everything that writes
// the masks — arrivals, pops, back-pressure, parking and waking, a snapshot
// restore, and a reconfiguration epoch's Flush and Reroute — serial and
// sharded.

// auditRouters fails the test if any router's cached masks disagree with a
// port scan, or if a router claims Quiet while its ports still buffer flits
// (the all-ports definition every architecture's Quiet implies; for the
// non-speculative router it is the whole definition).
func auditRouters(t *testing.T, net *Network, when string) {
	t.Helper()
	var ps []router.PortState
	for id, r := range net.routers {
		if err := r.Audit(); err != nil {
			t.Fatalf("cycle %d, %s: %v", net.Cycle(), when, err)
		}
		buffered := 0
		ps = r.PortStates(ps[:0])
		for _, s := range ps {
			buffered += s.Buffered
			if s.Register {
				buffered++
			}
		}
		if buffered != r.BufferedFlits() {
			t.Fatalf("cycle %d, %s: router %d counts %d buffered flits, its ports hold %d",
				net.Cycle(), when, id, r.BufferedFlits(), buffered)
		}
		if q := r.Quiet(); q && buffered != 0 || net.Arch() == router.NonSpec && q != (buffered == 0) {
			t.Fatalf("cycle %d, %s: router %d Quiet()=%v with %d flits buffered", net.Cycle(), when, id, q, buffered)
		}
	}
}

// burstyStep injects one cycle of random traffic — 1-, 3- and 9-flit packets,
// in bursts heavy enough to fill buffers and exhaust credits, with lulls long
// enough for routers to drain and park — and steps the network.
func burstyStep(net *Network, rng *sim.RNG, cyc int) {
	load := 0.02
	if cyc%120 < 70 {
		load = 0.45
	}
	cores := net.Cores()
	for id := 0; id < cores; id++ {
		if rng.Float64() >= load {
			continue
		}
		dst := rng.Intn(cores - 1)
		if dst >= id {
			dst++
		}
		net.Inject(noc.NodeID(id), noc.NodeID(dst), []int{1, 1, 3, 9}[rng.Intn(4)], 0)
	}
	net.Step()
}

func forArchsAndShards(t *testing.T, fn func(t *testing.T, arch router.Arch, shards int)) {
	for _, arch := range router.Archs {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", arch, shards), func(t *testing.T) { fn(t, arch, shards) })
		}
	}
}

// TestMasksMatchPortScan: bursty multi-flit traffic against a two-slot sink
// (so ejection back-pressures into the mesh), a save and restore into a fresh
// network mid-burst, then a drain.
func TestMasksMatchPortScan(t *testing.T) {
	forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
		cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: shards, SinkDepth: 2}
		net := New(cfg)
		defer func() { net.Close() }()
		rng := sim.NewRNG(0x3A5C + uint64(arch))
		auditRouters(t, net, "after construction")
		for cyc := 0; cyc < 700; cyc++ {
			if cyc == 330 {
				e := codec.NewEncoder()
				if err := net.SaveState(e); err != nil {
					t.Fatal(err)
				}
				net.Close()
				net = New(cfg)
				if err := net.RestoreState(codec.NewDecoder(e.Bytes())); err != nil {
					t.Fatal(err)
				}
				auditRouters(t, net, "after restore")
			}
			burstyStep(net, rng, cyc)
			auditRouters(t, net, "after commit")
		}
		if !net.Drain(20000) {
			t.Fatalf("%d packets did not drain", net.Outstanding())
		}
		auditRouters(t, net, "after drain")
		for id, r := range net.routers {
			if !r.Quiet() {
				t.Errorf("router %d not quiet on a drained network", id)
			}
		}
	})
}

// TestMasksSurviveReconfiguration: links die mid-burst, so a reconfiguration
// epoch flushes every router with flits in flight and swaps its route table.
func TestMasksSurviveReconfiguration(t *testing.T) {
	spec := fault.Spec{Seed: 3, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 150}, {A: 9, B: 10, At: 400}}}
	forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
		net, _, _ := buildHard(t, arch, shards, spec, nil)
		rng := sim.NewRNG(0xF1A5 + uint64(arch))
		for cyc := 0; cyc < 600; cyc++ {
			burstyStep(net, rng, cyc)
			auditRouters(t, net, "after commit")
		}
		if net.Epochs() != 2 {
			t.Fatalf("%d reconfiguration epochs ran, want 2", net.Epochs())
		}
		if err := net.DrainChecked(0, 0); err != nil {
			t.Fatal(err)
		}
		auditRouters(t, net, "after drain")
	})
}
