package network

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// Every packet a network carries comes from its noc.PacketSlab and goes back
// when its last owner lets go (noc.Owner): the network at retirement, the
// source and destination interfaces, an open retransmission entry. Flits
// carry their own header and are not owners. These tests pin what that rests
// on and what it buys: every holder holds what it names (Audit, after every
// commit), recycling changes no simulated byte, a faulted network reuses
// slots too, stale flits survive a snapshot, a pointer held too long reads
// scrubbed, and the loaded inject -> step -> deliver loop allocates nothing.

// auditNetwork fails the test on any reference to a recycled packet (and on
// any stale router mask: Network.Audit runs every router's Audit).
func auditNetwork(t *testing.T, net *Network, when string) {
	t.Helper()
	if err := net.Audit(); err != nil {
		t.Fatalf("cycle %d, %s: %v", net.Cycle(), when, err)
	}
}

// hotspotStep adds to a cycle of bursty traffic what recycling is most exposed
// to: a knot of nodes firing single-flit packets at one destination in the
// same cycle (NoX: deep XOR chains, decode copies, absorbed stale copies;
// Spec-Fast: unnecessary reservations naming departed packets), and 9-flit
// packets into the same knot (wormhole locks, §2.7 aborts).
func hotspotStep(net *Network, rng *sim.RNG, cyc int) {
	cores := net.Cores()
	hot := noc.NodeID((cyc / 64) % cores)
	for id := 0; id < cores; id++ {
		if src := noc.NodeID(id); src != hot && rng.Float64() < 0.5 {
			net.Inject(src, hot, []int{1, 1, 1, 9}[rng.Intn(4)], 0)
		}
	}
	burstyStep(net, rng, cyc)
}

// TestNoReferenceToFreePacket: saturated single-flit collisions, 9-flit
// wormholes with aborts, a two-slot sink back-pressuring into the mesh, and a
// save -> restore mid-run, on every architecture, serial and sharded, with
// the audit after every commit. Mutation-checked: returning the slot a cycle
// early (Put when the tail flit enters the sink, not when it is delivered)
// fails it at cycle 3 on every architecture, through a sink flit or a
// Spec-Fast reservation; a slab that hands out a live slot trips the
// interface's outlived-its-packet panic.
func TestNoReferenceToFreePacket(t *testing.T) {
	forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
		cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: shards, SinkDepth: 2}
		net := New(cfg)
		defer func() { net.Close() }()
		rng := sim.NewRNG(0x51AB + uint64(arch))
		for cyc := 0; cyc < 900; cyc++ {
			if cyc == 410 {
				e := codec.NewEncoder()
				if err := net.SaveState(e); err != nil {
					t.Fatal(err)
				}
				net.Close()
				net = New(cfg)
				if err := net.RestoreState(codec.NewDecoder(e.Bytes())); err != nil {
					t.Fatal(err)
				}
				auditNetwork(t, net, "after restore")
			}
			hotspotStep(net, rng, cyc)
			auditNetwork(t, net, "after commit")
		}
		if !net.Drain(200000) {
			t.Fatalf("%d packets did not drain", net.Outstanding())
		}
		auditNetwork(t, net, "after drain")
		c := net.Counters()
		if arch == router.NoX && (c.Collisions == 0 || c.Decode == 0 || c.Aborts == 0) {
			t.Errorf("the run never reached what it is for: %d collisions, %d decodes, %d aborts", c.Collisions, c.Decode, c.Aborts)
		}
		if arch != router.NoX && arch != router.NonSpec && c.WastedCycles == 0 {
			t.Error("the run never wasted a reserved or misspeculated cycle")
		}
	})

	// Under a transient campaign, and in the degrade cell below, the audit
	// proves every holder still holds what it names.
	t.Run("transient", func(t *testing.T) {
		forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
			net := New(transientConfig(arch, shards, 0x7A+uint64(arch)))
			defer net.Close()
			rng := sim.NewRNG(0x51AC + uint64(arch))
			for cyc := 0; cyc < 900; cyc++ {
				hotspotStep(net, rng, cyc)
				auditNetwork(t, net, "after commit")
			}
			// Dropped flits lose their packets for good: the drain is
			// bounded, and may end in a watchdog trip.
			_ = net.DrainChecked(20000, 0)
			auditNetwork(t, net, "after drain")
			if !recycles(net) {
				t.Error("no retired packet ever went back to the slab")
			}
		})
	})
	// A degrade cell: two links die mid-run, the epoch flushes and
	// retransmission re-sends, so duplicates and stranded flits of retired
	// packets are in flight. The run restored from a mid-run image must then
	// finish byte-equal to the uninterrupted one.
	t.Run("degrade", func(t *testing.T) {
		forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
			cfg := degradeConfig(arch, shards, 0xDE+uint64(arch))
			run := func(splitAt int) (string, []byte) {
				net := New(cfg())
				defer func() { net.Close() }()
				log := logDeliveries(net)
				rng := sim.NewRNG(0xD6 + uint64(arch))
				for cyc := 0; cyc < 900; cyc++ {
					if cyc == splitAt {
						e := codec.NewEncoder()
						if err := net.SaveState(e); err != nil {
							t.Fatal(err)
						}
						hook := net.OnDeliver
						net.Close()
						net = New(cfg())
						net.OnDeliver = hook
						if err := net.RestoreState(codec.NewDecoder(e.Bytes())); err != nil {
							t.Fatal(err)
						}
						auditNetwork(t, net, "after restore")
					}
					burstyStep(net, rng, cyc)
					auditNetwork(t, net, "after commit")
				}
				if err := net.DrainChecked(0, 0); err != nil {
					t.Fatal(err)
				}
				auditNetwork(t, net, "after drain")
				if net.Retransmits() == 0 || net.Epochs() != 1 || !recycles(net) {
					t.Errorf("not a degrade cell: %d retransmissions, %d epochs, recycled %v", net.Retransmits(), net.Epochs(), recycles(net))
				}
				e := codec.NewEncoder()
				if err := net.SaveState(e); err != nil {
					t.Fatal(err)
				}
				return log.String(), e.Bytes()
			}
			wantLog, wantImage := run(-1)
			gotLog, gotImage := run(410)
			if gotLog != wantLog {
				t.Errorf("the restored run delivered differently (%d vs %d bytes of log)", len(gotLog), len(wantLog))
			}
			if !bytes.Equal(gotImage, wantImage) {
				t.Errorf("the restored run ended in a different state (%d vs %d bytes)", len(gotImage), len(wantImage))
			}
		})
	})
}

// transientConfig is a transient fault campaign: bit-flips and drops on every
// channel, with the checker armed to record what they cause.
func transientConfig(arch router.Arch, shards int, seed uint64) Config {
	return Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: shards,
		Check: check.New(check.All()), Fault: fault.NewInjector(fault.Spec{Seed: seed, BitFlip: 2e-3, Drop: 1e-3})}
}

// degradeConfig returns a builder of a degrade cell's configuration — two
// links dying at cycle 300 under retransmission — with a fresh checker and
// injector each call, as a restore needs.
func degradeConfig(arch router.Arch, shards int, seed uint64) func() Config {
	spec := fault.Spec{Seed: seed, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 300}, {A: 9, B: 13, At: 300}}}
	return func() Config {
		return Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: shards,
			Check: check.New(check.All()), Fault: fault.NewInjector(spec),
			Retransmit: &RetransmitConfig{Timeout: 128, Retries: 4}}
	}
}

// recycles reports that some retired packet's slot is back on the slab's
// free list.
func recycles(net *Network) bool { return net.packets.Free() > 0 }

// logDeliveries installs an OnDeliver hook writing one line per packet, in
// delivery order, and returns the log.
func logDeliveries(net *Network) *bytes.Buffer {
	log := new(bytes.Buffer)
	net.OnDeliver = func(p *noc.Packet, cycle int64) {
		fmt.Fprintf(log, "%d %d>%d c%d i%d d%d\n", p.ID, p.Src, p.Dst, p.CreateCycle, p.InjectCycle, p.DeliverCycle)
	}
	return log
}

// TestPacketRecycleEquivalence runs the same seeded traffic twice on a
// retransmitting network whose timeout is below the path latency, so
// duplicate copies outlive their packets' slots: once reusing each slot when
// its last owner lets go, once keeping every retired slot from reuse (what
// is on the free list after a step is taken off it for good). The (ID, Src, Dst, Create, Inject,
// Deliver) sequence, the counters and a mid-run snapshot must be identical,
// byte for byte.
func TestPacketRecycleEquivalence(t *testing.T) {
	forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
		run := func(reuse bool) (string, power.Counters, []byte) {
			net := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: shards, SinkDepth: 2,
				Retransmit: &RetransmitConfig{Timeout: 48, Retries: 8}})
			defer net.Close()
			log := logDeliveries(net)
			rng := sim.NewRNG(0xE9 + uint64(arch))
			var image []byte
			kept := 0
			for cyc := 0; cyc < 600; cyc++ {
				hotspotStep(net, rng, cyc)
				for ; !reuse && net.packets.Free() > 0; kept++ {
					net.packets.Get(^uint64(0), 0, 1, 1, 0, 0) // taken off the free list for good
				}
				if cyc == 300 {
					e := codec.NewEncoder()
					if err := net.SaveState(e); err != nil {
						t.Fatal(err)
					}
					image = append(image, e.Bytes()...)
				}
			}
			if !net.Drain(200000) {
				t.Fatalf("%d packets did not drain", net.Outstanding())
			}
			if net.DupSuppressed() == 0 || !reuse && kept == 0 {
				t.Fatalf("not what the test is for: %d duplicate flits, %d slots kept from reuse", net.DupSuppressed(), kept)
			}
			return log.String(), *net.Counters(), image
		}
		wantLog, wantCounters, wantImage := run(false)
		gotLog, gotCounters, gotImage := run(true)
		if gotLog != wantLog {
			t.Errorf("the two lifetimes delivered differently (%d vs %d bytes of log)", len(gotLog), len(wantLog))
		}
		if gotCounters != wantCounters {
			t.Errorf("the two lifetimes counted differently:\n got %+v\nwant %+v", gotCounters, wantCounters)
		}
		if !bytes.Equal(gotImage, wantImage) {
			t.Errorf("the two lifetimes saved different cycle-300 snapshots (%d vs %d bytes)", len(gotImage), len(wantImage))
		}
	})
}

// TestFaultedNetworkRecycles: under a transient campaign and in a degrade cell
// the network hands the same slot to a later packet with no sweep — each slot
// goes back when its last owner lets go — and the audit holds after every
// step. Delivered packets read in full inside OnDeliver.
func TestFaultedNetworkRecycles(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"transient", transientConfig(router.NoX, 1, 1)},
		{"degrade", degradeConfig(router.NoX, 1, 2)()},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := New(c.cfg)
			defer net.Close()
			net.OnDeliver = func(p *noc.Packet, cycle int64) {
				if p.Recycled() || p.Latency() != cycle-p.CreateCycle {
					t.Fatalf("inside OnDeliver the packet reads %+v", p)
				}
			}
			owner := make(map[*noc.Packet]uint64)
			reused := 0
			rng := sim.NewRNG(3)
			for cyc := 0; cyc < 3000; cyc++ {
				for k := 0; k < 2; k++ {
					src := noc.NodeID(rng.Intn(16))
					if dst := noc.NodeID(rng.Intn(16)); dst != src {
						p := net.Inject(src, dst, 1+rng.Intn(3), 0)
						if id, ok := owner[p]; ok && id != p.ID {
							reused++
						}
						owner[p] = p.ID
					}
				}
				net.Step()
				auditNetwork(t, net, "after commit")
			}
			_ = net.DrainChecked(20000, 0)
			auditNetwork(t, net, "after drain")
			if reused == 0 {
				t.Error("no slot was handed to a later packet")
			}
		})
	}

	// Duplicate suppression still fires: a timeout far below the path latency
	// makes every packet's first attempt race its own retransmission.
	net := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Retransmit: &RetransmitConfig{Timeout: 4, Retries: 8}})
	defer net.Close()
	for i := 0; i < 20; i++ {
		net.Inject(0, 15, 3, 0)
		net.Step()
	}
	if err := net.DrainChecked(0, 0); err != nil {
		t.Fatal(err)
	}
	if net.Retransmits() == 0 || net.DupSuppressed() == 0 {
		t.Errorf("%d retransmissions, %d duplicate flits suppressed: want both above zero", net.Retransmits(), net.DupSuppressed())
	}
	if net.Delivered() != 20 {
		t.Errorf("%d packets delivered, want 20", net.Delivered())
	}
}

// TestUseAfterDeliverIsLoud: a *Packet is valid until its OnDeliver returns.
// Inside the hook it reads in full; held past it, it reads scrubbed — no ID,
// no cycles, Recycled — and Latency panics naming the rule, instead of the
// pointer quietly describing whichever packet moves into the slot next.
func TestUseAfterDeliverIsLoud(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Shards: shards})
			defer net.Close()
			var inside noc.Packet
			net.OnDeliver = func(p *noc.Packet, cycle int64) {
				inside = *p
				if p.Recycled() || p.Latency() != cycle-p.CreateCycle {
					t.Errorf("inside OnDeliver the packet reads %+v", p)
				}
			}
			held := net.Inject(0, 15, 9, 0)
			if !net.Drain(500) {
				t.Fatal("not drained")
			}
			if inside.ID != 1 || inside.Length != 9 || inside.DeliverCycle <= 0 {
				t.Errorf("OnDeliver saw %+v", inside)
			}
			if !held.Recycled() || held.ID != 0 || held.CreateCycle != 0 || held.DeliverCycle >= 0 || held.InjectCycle >= 0 || held.Measured {
				t.Errorf("a pointer held past OnDeliver reads %+v, want a scrubbed slot", held)
			}
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled") {
						t.Errorf("Latency on a recycled packet: recovered %v, want a panic naming the rule", r)
					}
				}()
				held.Latency()
			}()
			// LIFO: the next injection moves into the slot the held pointer names.
			if next := net.Inject(3, 12, 1, 0); next != held || held.ID != 2 {
				t.Errorf("the freed slot was not the next one handed out (%p vs %p)", next, held)
			}
		})
	}
}

// steadyAllocs counts the allocations of one inject-and-step at a loaded
// network's steady state. Each reading builds a fresh network (fresh returns
// its inject and step) and warms it up for 600 cycles before counting, so
// every reading runs the same scenario. Deliveries happen inside the steps:
// at steady state one packet completes for every one injected.
func steadyAllocs(fresh func() (inject, step func())) float64 {
	return alloctest.Allocs(200, func() func() {
		inject, step := fresh()
		for cyc := 0; cyc < 600; cyc++ {
			inject()
			step()
		}
		return func() {
			inject()
			step()
		}
	})
}

// TestSteadyStateAllocs: once the slab, the source-queue rings, the flit
// arenas and the collector have grown to the load, the whole loop — Inject,
// Step, the delivery and its OnDeliver — allocates nothing: packets turn
// around on the slab's free list. All four architectures, serial and two
// shards, single-flit and 9-flit packets, and two class networks in lockstep.
func TestSteadyStateAllocs(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	var delivered int64
	count := func(p *noc.Packet, cycle int64) { delivered += int64(p.Length) }
	for _, length := range []int{1, 9} {
		forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
			var net *Network
			avg := steadyAllocs(func() (func(), func()) {
				if net != nil {
					net.Close()
				}
				n := New(Config{Topo: topo, Arch: arch, Shards: shards})
				net = n
				n.OnDeliver = count
				rng := sim.NewRNG(uint64(length))
				return func() {
					for k := 0; k < 2; k++ { // 2 packets/cycle over 16 nodes, 1/9 of it for 9-flit packets
						src := noc.NodeID(rng.Intn(16))
						if dst := noc.NodeID(rng.Intn(16)); dst != src && (length == 1 || rng.Intn(9) == 0) {
							n.Inject(src, dst, length, 0)
						}
					}
				}, n.Step
			})
			defer net.Close()
			if avg != 0 {
				t.Errorf("%d-flit packets: inject+step allocates %v allocs/op in steady state", length, avg)
			}
			if net.Delivered() == 0 || net.Outstanding() > 200 {
				t.Errorf("not a steady state: %d delivered, %d outstanding", net.Delivered(), net.Outstanding())
			}
		})
	}
	t.Run("multi", func(t *testing.T) {
		// Two class networks built from one Config, as an app replay builds them.
		cfg := Config{Topo: topo, Arch: router.NoX}
		var nets [2]*Network
		defer func() {
			for _, n := range nets {
				n.Close()
			}
		}()
		avg := steadyAllocs(func() (func(), func()) {
			for i := range nets {
				if nets[i] != nil {
					nets[i].Close()
				}
				nets[i] = New(cfg)
				nets[i].OnDeliver = count
			}
			nets := nets
			rng := sim.NewRNG(11)
			var id uint64
			inject := func() {
				src := noc.NodeID(rng.Intn(16))
				if dst := noc.NodeID(rng.Intn(16)); dst != src {
					id++
					class := int(id % 2) // requests of 1 flit, replies of 9
					if _, err := nets[class].InjectAs(id, src, dst, 1+8*class, class); err != nil {
						t.Fatal(err)
					}
				}
			}
			step := func() {
				for _, n := range nets {
					n.Step()
				}
			}
			return inject, step
		})
		if avg != 0 {
			t.Errorf("two class networks: inject+step allocates %v allocs/op in steady state", avg)
		}
	})
}

// TestFaultedSteadyStateAllocs: the same loop on a network with a link dead
// from cycle 0 (routes run around it) and retransmission armed, so a checker
// too (a Fault requires one). A slot goes back when its last owner — the
// network, an interface, the retransmission entry — lets go, and the slab
// still turns slots around: nothing allocates. The retransmission entries and the
// checker's in-flight ledger are Go maps taking one insert and one delete per
// packet; at a steady size they reuse their tables. The load, one packet a
// cycle, is one every architecture sustains around the dead link, so the
// state is steady: the mean outstanding count of four more 800-cycle windows
// does not grow by more than a packet from the first to the last. (At two
// packets a cycle Spec-Fast's outstanding count grows without bound.)
func TestFaultedSteadyStateAllocs(t *testing.T) {
	forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) {
		var net *Network
		var inject func()
		avg := steadyAllocs(func() (func(), func()) {
			if net != nil {
				net.Close()
			}
			n := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: shards,
				Check: check.New(check.All()), Fault: fault.NewInjector(fault.Spec{Seed: 5, DeadLinks: []fault.DeadLink{{A: 5, B: 6}}}),
				Retransmit: &RetransmitConfig{Timeout: 128, Retries: 4}})
			net = n
			rng := sim.NewRNG(uint64(arch))
			inject = func() {
				src := noc.NodeID(rng.Intn(16))
				if dst := noc.NodeID(rng.Intn(16)); dst != src {
					n.Inject(src, dst, 1+rng.Intn(2), 0)
				}
			}
			return inject, n.Step
		})
		defer net.Close()
		if avg != 0 {
			t.Errorf("inject+step allocates %v allocs/op in steady state", avg)
		}
		var means []float64
		for w := 0; w < 4; w++ {
			sum := int64(0)
			for c := 0; c < 800; c++ {
				inject()
				net.Step()
				sum += net.Outstanding()
			}
			means = append(means, float64(sum)/800)
		}
		if net.Delivered() == 0 || net.Outstanding() > 200 || means[len(means)-1] > means[0]+1 {
			t.Errorf("not a recycling steady state: %d delivered, %d outstanding, mean outstanding per 800 cycles %.1f",
				net.Delivered(), net.Outstanding(), means)
		}
	})
}

// TestInjectPacketRejectsBadPackets: a caller-numbered packet goes through
// the validation InjectChecked applies, before it can index an interface
// that does not exist, and Inject panics with the same error's text.
func TestInjectPacketRejectsBadPackets(t *testing.T) {
	net := New(Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.NoX})
	defer net.Close()
	for name, p := range map[string]struct {
		src, dst noc.NodeID
		length   int
	}{
		"negative source":      {-1, 2, 1},
		"negative destination": {0, -3, 1},
		"source beyond mesh":   {4, 0, 1},
		"self-addressed":       {2, 2, 1},
		"zero length":          {0, 1, 0},
		"negative length":      {0, 1, -2},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := net.InjectAs(9, p.src, p.dst, p.length, 0); !errors.Is(err, ErrBadPacket) {
				t.Errorf("InjectAs(%+v): %v, want ErrBadPacket", p, err)
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), ErrBadPacket.Error()) {
					t.Errorf("Inject(%+v): recovered %v, want a panic with ErrBadPacket's text", p, r)
				}
				if net.Injected() != 0 {
					t.Errorf("a rejected packet was counted injected")
				}
			}()
			net.Inject(p.src, p.dst, p.length, 0)
		})
	}
	if _, err := net.InjectAs(8, 0, 3, 2, 0); err != nil || !net.Drain(200) || net.Delivered() != 1 {
		t.Errorf("a well-formed caller-numbered packet was not delivered: %v", err)
	}
}

// TestStaleFlitImageRoundTrip: in a degrade cell whose retransmission timeout
// is far below the path latency every packet races its own copies, so flits
// whose packet's slot went back to the slab are in flight. An image saved at
// every cycle of a window restores, re-encodes to its own bytes and
// continues exactly as the uninterrupted run does (the same deliveries from
// the split on, the same final image); at least one image holds a stale flit.
func TestStaleFlitImageRoundTrip(t *testing.T) {
	const from, to, end = 100, 160, 240
	spec := fault.Spec{Seed: 0x57A1E, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 130}, {A: 9, B: 13, At: 130}}}
	cfg := func(arch router.Arch) Config {
		return Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch,
			Check: check.New(check.All()), Fault: fault.NewInjector(spec),
			Retransmit: &RetransmitConfig{Timeout: 4, Retries: 8}}
	}
	// inject offers cycle cyc's packets, a function of the cycle alone, so a
	// restored run replays them.
	inject := func(net *Network, cyc int) {
		rng := sim.NewRNG(0x5EED + uint64(cyc))
		for id := 0; id < 16; id++ {
			if rng.Float64() < 0.15 {
				dst := (id + 1 + rng.Intn(15)) % 16
				net.Inject(noc.NodeID(id), noc.NodeID(dst), []int{1, 1, 3, 9}[rng.Intn(4)], 0)
			}
		}
	}
	// run steps net from cycle start to end (calling save first each cycle),
	// drains it, and returns its deliveries, their cycles and its final image.
	run := func(t *testing.T, net *Network, start int, save func(cyc int)) ([]string, []int64, []byte) {
		var log []string
		var at []int64
		net.OnDeliver = func(p *noc.Packet, cycle int64) {
			log = append(log, fmt.Sprintf("%d %d>%d c%d i%d d%d", p.ID, p.Src, p.Dst, p.CreateCycle, p.InjectCycle, p.DeliverCycle))
			at = append(at, cycle)
		}
		for cyc := start; cyc < end; cyc++ {
			if save != nil {
				save(cyc)
			}
			inject(net, cyc)
			net.Step()
		}
		if err := net.DrainChecked(0, 0); err != nil {
			t.Fatal(err)
		}
		e := codec.NewEncoder()
		if err := net.SaveState(e); err != nil {
			t.Fatal(err)
		}
		return log, at, e.Bytes()
	}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			ref := New(cfg(arch))
			defer ref.Close()
			images := make(map[int][]byte)
			stale := 0
			wantLog, wantAt, wantFinal := run(t, ref, 0, func(cyc int) {
				if cyc < from || cyc >= to {
					return
				}
				e := codec.NewEncoder()
				if err := ref.SaveState(e); err != nil {
					t.Fatal(err)
				}
				images[cyc] = e.Bytes()
				if e.Headers() > 0 {
					stale++
				}
			})
			if stale == 0 || ref.DupSuppressed() == 0 {
				t.Fatalf("not what the test is for: %d images with a stale flit, %d duplicates", stale, ref.DupSuppressed())
			}
			for cyc := from; cyc < to; cyc++ {
				net := New(cfg(arch))
				if err := net.RestoreState(codec.NewDecoder(images[cyc])); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
				e := codec.NewEncoder()
				if err := net.SaveState(e); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e.Bytes(), images[cyc]) {
					t.Fatalf("cycle %d: the restored image re-encodes to different bytes", cyc)
				}
				log, _, final := run(t, net, cyc, nil)
				net.Close()
				k := sort.Search(len(wantAt), func(i int) bool { return wantAt[i] >= int64(cyc) })
				if !slices.Equal(log, wantLog[k:]) || !bytes.Equal(final, wantFinal) {
					t.Fatalf("cycle %d: the restored run diverged from the uninterrupted one", cyc)
				}
			}
			t.Logf("%d of %d images hold a stale flit", stale, to-from)
		})
	}
}
