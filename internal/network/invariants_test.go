package network

import (
	"testing"
	"testing/quick"

	"repro/internal/arbiter"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
)

// TestOddTopologies exercises non-square and degenerate meshes (single row,
// single column, tiny) on every architecture: routing, wiring, and drain
// must all hold without the 8x8 assumptions.
func TestOddTopologies(t *testing.T) {
	topos := []noc.Topology{
		{Width: 2, Height: 2},
		{Width: 1, Height: 8},
		{Width: 8, Height: 1},
		{Width: 5, Height: 3},
	}
	for _, topo := range topos {
		for _, arch := range router.Archs {
			n := New(Config{Topo: topo, Arch: arch})
			rng := sim.NewRNG(3)
			for round := 0; round < 50; round++ {
				src := noc.NodeID(rng.Intn(topo.Nodes()))
				dst := noc.NodeID(rng.Intn(topo.Nodes()))
				if src == dst {
					continue
				}
				length := 1
				if rng.Bernoulli(0.25) {
					length = 4
				}
				n.Inject(src, dst, length, 0)
				n.Step()
			}
			if !n.Drain(10000) {
				t.Errorf("%v on %dx%d: %d packets stuck", arch, topo.Width, topo.Height, n.Outstanding())
			}
		}
	}
}

// TestMatrixArbiterNetwork runs the NoX network with matrix (least
// recently served) arbiters instead of round-robin — the arbitration
// ablation — and checks full functionality.
func TestMatrixArbiterNetwork(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	n := New(Config{
		Topo: topo, Arch: router.NoX,
		NewArbiter: func(k int) arbiter.Arbiter { return arbiter.NewMatrix(k) },
	})
	rng := sim.NewRNG(11)
	for round := 0; round < 300; round++ {
		for id := 0; id < topo.Nodes(); id++ {
			if rng.Bernoulli(0.2) {
				dst := noc.NodeID(rng.Intn(topo.Nodes()))
				if dst != noc.NodeID(id) {
					n.Inject(noc.NodeID(id), dst, 1, 0)
				}
			}
		}
		n.Step()
	}
	if !n.Drain(10000) {
		t.Fatalf("matrix-arbiter NoX network stuck: %d outstanding", n.Outstanding())
	}
	if n.Counters().EncodedFlits == 0 {
		t.Error("expected encoded traffic under load")
	}
}

// TestConservationProperty is the network-wide flit-conservation property:
// for random small workloads on random architectures, after draining,
// injected == delivered and all buffers are empty.
func TestConservationProperty(t *testing.T) {
	topo := noc.Topology{Width: 3, Height: 3}
	f := func(seed uint64, archRaw uint8) bool {
		arch := router.Archs[int(archRaw)%len(router.Archs)]
		n := New(Config{Topo: topo, Arch: arch})
		rng := sim.NewRNG(seed)
		for round := 0; round < 60; round++ {
			for id := 0; id < topo.Nodes(); id++ {
				if rng.Bernoulli(0.3) {
					dst := noc.NodeID(rng.Intn(topo.Nodes()))
					if dst == noc.NodeID(id) {
						continue
					}
					length := []int{1, 1, 1, 2, 9}[rng.Intn(5)]
					n.Inject(noc.NodeID(id), dst, length, 0)
				}
			}
			n.Step()
		}
		if !n.Drain(20000) {
			return false
		}
		if n.Injected() != n.Delivered() {
			return false
		}
		for _, r := range n.routers {
			if r.BufferedFlits() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInjectValidation checks Inject's argument guards.
func TestInjectValidation(t *testing.T) {
	n := New(Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.NoX})
	for _, fn := range []func(){
		func() { n.Inject(1, 1, 1, 0) }, // self-addressed
		func() { n.Inject(0, 1, 0, 0) }, // zero length
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Inject accepted")
				}
			}()
			fn()
		}()
	}
}

// TestOnDeliverObservesEveryPacket wires the delivery hook and counts.
func TestOnDeliverObservesEveryPacket(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	n := New(Config{Topo: topo, Arch: router.NoX})
	seen := 0
	n.OnDeliver = func(p *noc.Packet, cycle int64) {
		if p.DeliverCycle != cycle {
			t.Errorf("DeliverCycle %d != hook cycle %d", p.DeliverCycle, cycle)
		}
		seen++
	}
	for i := 0; i < 20; i++ {
		n.Inject(noc.NodeID(i%16), noc.NodeID((i+5)%16), 1, 0)
		n.Step()
	}
	n.Drain(2000)
	if int64(seen) != n.Delivered() {
		t.Errorf("hook saw %d deliveries, network counted %d", seen, n.Delivered())
	}
}

// TestQueueLenAndOutstanding sanity-check the occupancy accessors under a
// burst that cannot drain instantly.
func TestQueueLenAndOutstanding(t *testing.T) {
	topo := noc.Topology{Width: 2, Height: 2}
	n := New(Config{Topo: topo, Arch: router.NonSpec})
	for i := 0; i < 10; i++ {
		n.Inject(0, 3, 9, 0)
	}
	if n.QueueLen(0) == 0 {
		t.Error("source queue should be non-empty before stepping")
	}
	if n.Outstanding() != 10 {
		t.Errorf("outstanding = %d, want 10", n.Outstanding())
	}
	if !n.Drain(5000) {
		t.Fatal("burst did not drain")
	}
	if n.QueueLen(0) != 0 || n.Outstanding() != 0 {
		t.Error("occupancy not zero after drain")
	}
}

// TestConcentratedMesh runs the future-work CMesh configuration (4x4 grid,
// 4 cores per radix-8 router, 64 cores) on every architecture: same-router
// traffic, cross-chip traffic, multi-flit packets, conservation.
func TestConcentratedMesh(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			n := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Concentration: 4, Arch: arch})
			if n.Cores() != 64 || n.System().Ports() != 8 {
				t.Fatalf("cmesh shape wrong: cores=%d ports=%d", n.Cores(), n.System().Ports())
			}
			// Same-router exchange (through the router, not a shortcut).
			lats := recordLatencies(n)
			p0 := n.Inject(0, 3, 1, 0).ID
			// Corner-to-corner data packet.
			p1 := n.Inject(0, 63, 9, 0).ID
			rng := sim.NewRNG(uint64(arch) + 31)
			for round := 0; round < 400; round++ {
				for c := 0; c < 16; c++ {
					if rng.Bernoulli(0.15) {
						src := noc.NodeID(rng.Intn(64))
						dst := noc.NodeID(rng.Intn(64))
						if src != dst {
							n.Inject(src, dst, 1, 0)
						}
					}
				}
				n.Step()
			}
			if !n.Drain(20000) {
				t.Fatalf("cmesh not drained: %d outstanding", n.Outstanding())
			}
			if lats[p0] <= 0 || lats[p1] <= 0 {
				t.Error("latencies not recorded")
			}
			if lats[p0] >= lats[p1] {
				t.Errorf("same-router latency %d should beat corner-to-corner %d", lats[p0], lats[p1])
			}
			if n.Injected() != n.Delivered() {
				t.Error("conservation violated on cmesh")
			}
		})
	}
}

// TestConcentratedNoXEncodes verifies the XOR mechanism engages on the
// radix-8 router under local-port convergence (up to 7 colliders).
func TestConcentratedNoXEncodes(t *testing.T) {
	n := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Concentration: 4, Arch: router.NoX})
	// All cores of routers 0 and 1 target core 32 simultaneously.
	for round := 0; round < 8; round++ {
		for c := 0; c < 8; c++ {
			n.Inject(noc.NodeID(c), 32, 1, 0)
		}
		n.Step()
	}
	if !n.Drain(5000) {
		t.Fatalf("not drained: %d", n.Outstanding())
	}
	if n.Counters().EncodedFlits == 0 {
		t.Error("no encoded flits on the radix-8 router")
	}
}

// TestSameFlowOrdering verifies the wormhole ordering invariant every
// architecture must preserve: packets between one (src, dst) pair are
// delivered in injection order — NoX decode included, since an input
// port's presentations are strictly head-ordered.
func TestSameFlowOrdering(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			topo := noc.Topology{Width: 4, Height: 4}
			n := New(Config{Topo: topo, Arch: arch})
			var order []uint64
			n.OnDeliver = func(p *noc.Packet, cycle int64) {
				if p.Src == 0 && p.Dst == 15 {
					order = append(order, p.ID)
				}
			}
			rng := sim.NewRNG(77)
			var flowIDs []uint64
			for round := 0; round < 150; round++ {
				// The observed flow, plus random cross traffic colliding
				// with it.
				if round%3 == 0 {
					length := 1
					if rng.Bernoulli(0.3) {
						length = 5
					}
					flowIDs = append(flowIDs, n.Inject(0, 15, length, 0).ID)
				}
				for i := 0; i < 4; i++ {
					src := noc.NodeID(rng.Intn(topo.Nodes()))
					dst := noc.NodeID(rng.Intn(topo.Nodes()))
					if src != dst && !(src == 0 && dst == 15) {
						n.Inject(src, dst, 1, 0)
					}
				}
				n.Step()
			}
			if !n.Drain(20000) {
				t.Fatalf("not drained: %d", n.Outstanding())
			}
			if len(order) != len(flowIDs) {
				t.Fatalf("flow delivered %d/%d", len(order), len(flowIDs))
			}
			for i := range order {
				if order[i] != flowIDs[i] {
					t.Fatalf("flow reordered at %d: got %v want %v", i, order[i], flowIDs[i])
				}
			}
		})
	}
}
