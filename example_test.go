package noxnet_test

import (
	"fmt"

	noxnet "repro"
)

// Build an 8x8 NoX mesh, send two packets and print their latencies — the
// smallest end-to-end use of the public API.
func Example() {
	// An 8x8 mesh of NoX routers with Table 1 defaults (4-flit buffers,
	// 64-bit links, XY routing).
	net := noxnet.NewNetwork(noxnet.NetworkConfig{Arch: noxnet.NoX})

	// A packet is the network's: it is valid until its OnDeliver returns,
	// then recycled. So latencies are collected there, keyed by packet ID.
	latency := map[uint64]int64{}
	net.OnDeliver = func(p *noxnet.Packet, cycle int64) { latency[p.ID] = p.Latency() }

	// Send a 1-flit control packet corner to corner and a 9-flit data
	// packet across the diagonal; payloads are verified bit-exactly on
	// delivery by the simulator itself.
	control := net.Inject(0, 63, 1, 0).ID
	data := net.Inject(56, 7, 9, 0).ID

	if !net.Drain(10_000) {
		panic("packets did not drain")
	}

	period := noxnet.ClockPeriodNs(noxnet.NoX)
	fmt.Printf("NoX clock period: %.2f ns\n", period)
	fmt.Printf("control packet 0->63: %d cycles = %.2f ns\n",
		latency[control], float64(latency[control])*period)
	fmt.Printf("data packet 56->7:    %d cycles = %.2f ns\n",
		latency[data], float64(latency[data])*period)

	// The same experiment on the sequential baseline, for contrast.
	base := noxnet.NewNetwork(noxnet.NetworkConfig{Arch: noxnet.NonSpec})
	base.OnDeliver = func(p *noxnet.Packet, cycle int64) {
		fmt.Printf("non-speculative 0->63: %d cycles = %.2f ns\n",
			p.Latency(), float64(p.Latency())*noxnet.ClockPeriodNs(noxnet.NonSpec))
	}
	base.Inject(0, 63, 1, 0)
	base.Drain(10_000)
	// Output:
	// NoX clock period: 0.76 ns
	// control packet 0->63: 16 cycles = 12.16 ns
	// data packet 56->7:    24 cycles = 18.24 ns
	// non-speculative 0->63: 16 cycles = 14.72 ns
}

// arrival is what the coding walkthrough keeps of a delivered packet. The
// packet itself is valid only until its OnDeliver returns (the network
// recycles it).
type arrival struct {
	id      uint64
	src     noxnet.NodeID
	cycle   int64
	latency int64
}

// collide fires one single-flit packet from each of nodes 1, 4 and 9 toward
// node 10 on the same cycle of a 4x4 mesh and prints the deliveries and the
// datapath counters. With XY routing the flits meet at different input
// ports of intermediate routers, colliding on the way.
func collide(arch noxnet.Arch) {
	net := noxnet.NewNetwork(noxnet.NetworkConfig{
		Arch: arch,
		Topo: noxnet.Topology{Width: 4, Height: 4},
	})
	var arrivals []arrival
	net.OnDeliver = func(p *noxnet.Packet, cycle int64) {
		arrivals = append(arrivals, arrival{p.ID, p.Src, cycle, p.Latency()})
	}
	for _, src := range []noxnet.NodeID{1, 4, 9} {
		net.Inject(src, 10, 1, 0)
	}
	if !net.Drain(1_000) {
		panic("collision traffic did not drain")
	}

	c := net.Counters()
	fmt.Printf("%-16s deliveries in arbitration order:\n", arch)
	for _, a := range arrivals {
		fmt.Printf("  packet %d from node %-2d delivered at cycle %d (%.2f ns)\n",
			a.id, a.src, a.cycle, float64(a.latency)*noxnet.ClockPeriodNs(arch))
	}
	fmt.Printf("  productive collisions: %d   encoded flits on wires: %d   decode ops: %d\n",
		c.Collisions, c.EncodedFlits, c.Decode)
	fmt.Printf("  wasted channel drives: %d   wasted cycles: %d\n", c.LinkInvalid, c.WastedCycles)
}

// The paper's Figures 2 and 3 on a live network: three packets collide at
// a shared router output, NoX transmits their XOR and delivers every packet
// bit-exactly in arbitration order with no wasted channel cycle, while
// Spec-Accurate burns the same contention driving invalid values.
func Example_coding() {
	collide(noxnet.NoX)
	collide(noxnet.SpecAccurate)
	// Output:
	// NoX              deliveries in arbitration order:
	//   packet 3 from node 9  delivered at cycle 3 (2.28 ns)
	//   packet 1 from node 1  delivered at cycle 6 (4.56 ns)
	//   packet 2 from node 4  delivered at cycle 7 (5.32 ns)
	//   productive collisions: 1   encoded flits on wires: 1   decode ops: 1
	//   wasted channel drives: 0   wasted cycles: 0
	// Spec-Accurate    deliveries in arbitration order:
	//   packet 3 from node 9  delivered at cycle 3 (2.16 ns)
	//   packet 1 from node 1  delivered at cycle 6 (4.32 ns)
	//   packet 2 from node 4  delivered at cycle 7 (5.04 ns)
	//   productive collisions: 1   encoded flits on wires: 0   decode ops: 0
	//   wasted channel drives: 1   wasted cycles: 1
}
