package network

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/probe"
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
	for site, at := range buildSites(noc.MeshSystem(topo), nil) {
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

// TestShardCrossFedLatch: the middle router of a row of three is fed from
// both of its neighbours every cycle, and with the row cut into two or three
// shards those neighbours step on other workers, so two Sends raise bits of
// its staged-input mask in the same compute phase. On every architecture the
// deliveries must land on the cycles the serial kernel lands them on, and
// Audit must find every mask zero between steps; under -race (make
// shard-race runs this at -cpu 1,2,4) the two raises must not race. A probed
// serial run proves the double feed happens: it counts the cycles in which
// both neighbours' channels into the middle router carried a flit.
func TestShardCrossFedLatch(t *testing.T) {
	const cycles = 3000
	topo := noc.Topology{Width: 3, Height: 1}
	for _, arch := range router.Archs {
		run := func(shards int, pr *probe.Probe) (delivered int64, digest uint64) {
			n := New(Config{Topo: topo, Arch: arch, Shards: shards, Probe: pr})
			defer n.Close()
			n.OnDeliver = func(p *noc.Packet, cycle int64) {
				digest = digest*1099511628211 ^ p.ID<<20 ^ uint64(cycle)
			}
			for cyc := 0; cyc < cycles; cyc++ {
				if cyc%2 == 0 {
					n.Inject(0, 2, 1+cyc%3, 0)
					n.Inject(2, 0, 1+cyc%4, 0)
					n.Inject(1, noc.NodeID(2*(cyc/2%2)), 1, 0)
				}
				n.Step()
				if err := n.Audit(); err != nil {
					t.Fatalf("%s shards=%d cycle %d: %v", arch, shards, n.Cycle(), err)
				}
			}
			return n.Delivered(), digest
		}
		pr := probe.New(probe.Config{})
		wantN, want := run(1, pr)
		fromWest, fromEast := map[int64]bool{}, map[int64]bool{}
		for _, ev := range pr.Events() {
			switch {
			case ev.Kind == probe.EvLink && ev.Node == 0 && ev.Port == int8(noc.East):
				fromWest[ev.Cycle] = true
			case ev.Kind == probe.EvLink && ev.Node == 2 && ev.Port == int8(noc.West):
				fromEast[ev.Cycle] = true
			}
		}
		both := 0
		for c := range fromWest {
			if fromEast[c] {
				both++
			}
		}
		if both < cycles/10 {
			t.Fatalf("%s: the middle router was fed from both sides in only %d of %d cycles", arch, both, cycles)
		}
		for _, shards := range []int{2, 3} {
			if gotN, got := run(shards, nil); gotN != wantN || got != want {
				t.Errorf("%s shards=%d: %d deliveries (digest %#x), serial %d (%#x)", arch, shards, gotN, got, wantN, want)
			}
		}
	}
}
