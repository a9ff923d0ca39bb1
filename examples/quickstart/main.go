// Quickstart: build an 8x8 NoX mesh, send a handful of packets, and print
// their latencies — the smallest end-to-end use of the public API.
package main

import (
	"fmt"

	noxnet "repro"
)

func main() {
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
}
