package network

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/router"
)

// TestNetworkRegistersNoLinks: channels are state of their sinks, not kernel
// components — in every mode the kernel holds the routers and the
// interfaces and nothing else.
func TestNetworkRegistersNoLinks(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 3}
	for _, cfg := range []Config{
		{Topo: topo, Arch: router.NoX, Shards: 1},
		{Topo: topo, Arch: router.NoX, Shards: 1, Oracle: true},
		{Topo: topo, Arch: router.SpecFast, Shards: 1},
		{Topo: topo, Arch: router.NonSpec, Shards: 1, Oracle: true},
		{Topo: topo, Arch: router.NoX, Shards: 1, Concentration: 4},
		{Topo: topo, Arch: router.NoX, Shards: 4},
		{Topo: topo, Arch: router.SpecAccurate, Shards: 5},
		{Topo: topo, Arch: router.NoX, Shards: 3, Concentration: 4},
	} {
		n := New(cfg)
		want := n.sys.Routers() + n.sys.Cores()
		if got := n.kernel.ActiveComponents(); got != want {
			t.Errorf("%+v: kernel holds %d components after New, want %d routers + %d interfaces",
				cfg, got, n.sys.Routers(), n.sys.Cores())
		}
		if got := len(n.links); got != len(n.sites) || got == 0 {
			t.Errorf("%+v: %d links for %d sites", cfg, got, len(n.sites))
		}
		n.Close()
	}
}

// TestSentFlitNotDereferenced: Send hands the flit to the sink, which may
// drop it or swallow it on overflow — and recycle it, which zeroes it —
// before the sender's own commit has popped it. On a row of four routers
// with 4-flit packets running both ways (so on every hop some sink commits
// before its sender), a drop fault and an overflow fault at each channel in
// turn must end in recorded violations on every architecture, serial and
// with the row cut into two shards: never in a panic, and under -race never
// in a sender reading a flit it sent.
func TestSentFlitNotDereferenced(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 1}
	// Every channel the two flows cross: all but the local channels of the
	// two middle tiles.
	var path []int32
	for site, at := range buildSites(noc.MeshSystem(topo)) {
		if at.Core != 1 && at.Core != 2 {
			path = append(path, int32(site))
		}
	}
	for _, arch := range router.Archs {
		for _, shards := range []int{1, 2} {
			for _, kind := range []string{"drop", "overflow"} {
				t.Run(fmt.Sprintf("%v/shards=%d/%s", arch, shards, kind), func(t *testing.T) {
					for _, hit := range path {
						var tamper *testTamper
						if kind == "drop" {
							tamper = &testTamper{leaky: true, flit: func(s int32, _ int64, f *noc.Flit) bool {
								return s == hit && !f.Encoded && f.Seq == 1
							}}
						} else {
							// Every return at the site is doubled while every
							// channel drains one cycle in three: the sender
							// outruns the sink's buffer.
							tamper = &testTamper{leaky: true,
								credits: func(s int32, _ int64, n int) int {
									if s == hit {
										return 2 * n
									}
									return n
								},
								stalled: func(s int32, cycle int64) bool { return s != hit && cycle%3 != 0 },
							}
						}
						ck := check.New(check.All())
						n := New(Config{Topo: topo, Arch: arch, Shards: shards, Check: ck, Fault: tamper})
						for i := 0; i < 6; i++ {
							n.Inject(0, 3, 4, 0)
							n.Inject(3, 0, 4, 0)
						}
						// A wedge (a lost tail leaves a wormhole lock held) is a
						// legitimate outcome; a panic is not.
						_ = n.DrainChecked(4000, 400)
						n.CheckInvariants()
						n.Close()
						total := 0
						for _, c := range ck.Counts() {
							total += int(c)
						}
						if total == 0 {
							t.Errorf("site %d: a %s fault on the path left no violation", hit, kind)
						}
					}
				})
			}
		}
	}
}

// TestShardComputePhaseWakeRace: two routers on either side of a shard
// boundary hand one packet back and forth, so nearly every hop is a
// compute-phase Arrive for a parked component of the other shard — the flag
// store one worker makes while the other walks its flags. Deliveries must
// land on the cycles the serial kernel lands them on; under -race (make
// shard-race runs this at -cpu 1,2,4) the walk's loads and the wake's store
// must not race.
func TestShardComputePhaseWakeRace(t *testing.T) {
	cycles := 100000
	if testing.Short() {
		cycles = 10000
	}
	pingPong := func(shards int) (deliveries int, sum int64) {
		n := New(Config{Topo: noc.Topology{Width: 2, Height: 1}, Arch: router.NoX, Shards: shards})
		defer n.Close()
		// The hook notes where and when the packet in flight landed; the
		// next one leaves from there before the following step.
		at, landed := noc.NodeID(0), int64(-1)
		n.OnDeliver = func(p *noc.Packet, cycle int64) { at, landed = p.Dst, cycle }
		n.Inject(at, 1-at, 1, 0)
		for cyc := 0; cyc < cycles; cyc++ {
			if landed >= 0 {
				deliveries++
				sum = sum*31 + landed
				landed = -1
				n.Inject(at, 1-at, 1+deliveries%3, 0)
			}
			n.Step()
		}
		return deliveries, sum
	}
	wantN, wantSum := pingPong(1)
	if wantN < cycles/20 {
		t.Fatalf("serial reference delivered only %d packets in %d cycles", wantN, cycles)
	}
	if gotN, gotSum := pingPong(2); gotN != wantN || gotSum != wantSum {
		t.Errorf("2 shards: %d deliveries (cycle hash %d), serial %d (%d)", gotN, gotSum, wantN, wantSum)
	}
}
