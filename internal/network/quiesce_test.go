package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// driveBursty drives a deterministic bursty workload — alternating loaded
// and idle stretches, mixed single- and multi-flit packets — and returns a
// fingerprint of everything observable: per-packet delivery records, event
// counters, and final cycle. Idle stretches are long enough for the whole
// network to quiesce, so the fast path's sleep/wake transitions are
// exercised on every burst boundary.
func driveBursty(t *testing.T, cfg Config, seed uint64) (string, power.Counters) {
	t.Helper()
	// Every burst run doubles as an invariant audit: a fresh fully-armed
	// checker rides along (unless the caller supplied one) and the run must
	// finish with zero violations — the delivery oracle, protocol
	// assertions, and conservation sweep all stay silent on a fault-free
	// network at every arch, shard count, and dispatch mode.
	if cfg.Check == nil {
		cfg.Check = check.New(check.All())
	}
	net := New(cfg)
	defer net.Close()
	var log []string
	net.OnDeliver = func(p *noc.Packet, cycle int64) {
		log = append(log, fmt.Sprintf("%d:%d->%d@%d", p.ID, p.Src, p.Dst, cycle))
	}
	rng := sim.NewRNG(seed)
	cores := net.Cores()
	for burst := 0; burst < 8; burst++ {
		for cyc := 0; cyc < 40; cyc++ {
			for inj := 0; inj < 3; inj++ {
				src := noc.NodeID(rng.Intn(cores))
				dst := noc.NodeID(rng.Intn(cores))
				if src == dst {
					continue
				}
				length := 1
				if rng.Intn(4) == 0 {
					length = 3
				}
				net.Inject(src, dst, length, 0)
			}
			net.Step()
		}
		// Idle stretch: everything drains and goes quiescent.
		for cyc := 0; cyc < 120; cyc++ {
			net.Step()
		}
	}
	if !net.Drain(2000) {
		t.Fatalf("network did not drain (outstanding %d)", net.Outstanding())
	}
	net.CheckInvariants()
	if total := cfg.Check.Total(); total != 0 {
		for _, v := range cfg.Check.Violations() {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("checker recorded %d violations on a fault-free run", total)
	}
	fp := fmt.Sprintf("cycle=%d delivered=%d log=%v", net.Cycle(), net.Delivered(), log)
	return fp, *net.Counters()
}

// TestQuiescenceEquivalence is the safety net for the kernel's activity
// list: the quiescence fast path must be bit-exact against the oracle, the
// eager reference stepper — same deliveries at the same cycles, same energy
// event counts — for every router architecture.
func TestQuiescenceEquivalence(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch}
			ref := cfg
			ref.Oracle = true
			gotFP, gotC := driveBursty(t, cfg, 0xBEEF)
			wantFP, wantC := driveBursty(t, ref, 0xBEEF)
			if gotFP != wantFP {
				t.Errorf("delivery fingerprint diverged\nfast: %.200s\nref:  %.200s", gotFP, wantFP)
			}
			if gotC != wantC {
				t.Errorf("event counters diverged\nfast: %+v\nref:  %+v", gotC, wantC)
			}
		})
	}
}

// TestQuiescenceEquivalenceConcentrated repeats the equivalence check on
// the radix-8 concentrated mesh (4 cores per router), whose local-port
// fanout exercises the NI wake paths hardest.
func TestQuiescenceEquivalenceConcentrated(t *testing.T) {
	for _, arch := range []router.Arch{router.NonSpec, router.NoX} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := Config{Topo: noc.Topology{Width: 2, Height: 2}, Concentration: 4, Arch: arch}
			ref := cfg
			ref.Oracle = true
			gotFP, gotC := driveBursty(t, cfg, 0xC0FE)
			wantFP, wantC := driveBursty(t, ref, 0xC0FE)
			if gotFP != wantFP {
				t.Errorf("delivery fingerprint diverged\nfast: %.200s\nref:  %.200s", gotFP, wantFP)
			}
			if gotC != wantC {
				t.Errorf("event counters diverged\nfast: %+v\nref:  %+v", gotC, wantC)
			}
		})
	}
}

// TestNetworkGoesQuiescent checks the fast path actually engages: after a
// drain and the mask re-arm cycles, no component should remain active.
func TestNetworkGoesQuiescent(t *testing.T) {
	for _, arch := range router.Archs {
		net := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch})
		net.Inject(0, 15, 3, 0)
		net.Inject(5, 10, 1, 0)
		if !net.Drain(500) {
			t.Fatalf("%v: did not drain", arch)
		}
		// A couple of settle cycles let output controls re-arm and links
		// finish their last credit returns.
		for i := 0; i < 4; i++ {
			net.Step()
		}
		if n := net.kernel.ActiveComponents(); n != 0 {
			t.Errorf("%v: %d components still active after drain", arch, n)
		}
		// And the network must come back to life on new work.
		before := net.Delivered()
		net.Inject(3, 12, 1, 0)
		if !net.Drain(500) {
			t.Fatalf("%v: post-quiescence injection never delivered", arch)
		}
		if net.Delivered() != before+1 {
			t.Errorf("%v: packet not delivered after wake", arch)
		}
	}
}

// stallWatch tallies, across a run, the interfaces the kernel parked in the
// middle of a packet and how many of those the credit return woke again.
type stallWatch struct {
	stalled      []bool
	parks, wakes int
}

// observe inspects every interface between steps. A parked interface holding
// a packet must have no injection credits (it could send otherwise); one that
// was parked so and is awake again with credits was woken by the return.
func (w *stallWatch) observe(t *testing.T, net *Network) {
	t.Helper()
	if w.stalled == nil {
		w.stalled = make([]bool, len(net.nis))
	}
	for i, ni := range net.nis {
		if net.kernel.Parked(net.niHandle[i]) {
			if ni.cur == nil {
				continue
			}
			if c := ni.injectLink.Credits(); c != 0 {
				t.Fatalf("cycle %d: interface %d parked mid-packet with %d injection credits", net.Cycle(), i, c)
			}
			if !w.stalled[i] {
				w.stalled[i] = true
				w.parks++
			}
			continue
		}
		if w.stalled[i] {
			w.stalled[i] = false
			if ni.injectLink.Credits() > 0 {
				w.wakes++
			}
		}
	}
}

// driveHotspot drives a back-pressured hotspot — every other core sends
// 5-flit packets (longer than the 4-flit injection channel's credits) to
// core 5 — drains it, and returns the delivery log, the event counters and
// the snapshot image taken when injection stops. w, when non-nil, observes
// every cycle.
func driveHotspot(t *testing.T, cfg Config, w *stallWatch) (string, power.Counters, []byte) {
	t.Helper()
	const hot, cycles = 5, 200
	cfg.Topo = noc.Topology{Width: 4, Height: 4}
	net := New(cfg)
	defer net.Close()
	var log []string
	net.OnDeliver = func(p *noc.Packet, cycle int64) {
		log = append(log, fmt.Sprintf("%d:%d->%d@%d", p.ID, p.Src, p.Dst, cycle))
	}
	rng := sim.NewRNG(0x407)
	step := func() {
		net.Step()
		if w != nil {
			w.observe(t, net)
		}
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for src := 0; src < net.Cores(); src++ {
			if src != hot && rng.Intn(10) == 0 {
				net.Inject(noc.NodeID(src), hot, 5, 0)
			}
		}
		step()
	}
	e := codec.NewEncoder()
	if err := net.SaveState(e); err != nil {
		t.Fatal(err)
	}
	for limit := 0; net.Outstanding() > 0; limit++ {
		if limit == 20000 {
			t.Fatalf("hotspot did not drain (outstanding %d)", net.Outstanding())
		}
		step()
	}
	return fmt.Sprintf("cycle=%d log=%v", net.Cycle(), log), *net.Counters(), e.Bytes()
}

// TestNIParksOnZeroCredits pins the stalled-sender half of NI.Quiet: under a
// back-pressured hotspot an interface mid-packet on an injection channel with
// no credits parks, the home router's credit return wakes it, and the run
// ends byte-equal to the oracle's eager evaluation (which also checks every
// park against the contract) — serially and at two shards.
func TestNIParksOnZeroCredits(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			wantLog, wantC, wantImg := driveHotspot(t, Config{Arch: arch, Shards: 1, Oracle: true}, nil)
			for _, cfg := range []Config{
				{Arch: arch, Shards: 1},
				{Arch: arch, Shards: 2},
			} {
				var w stallWatch
				log, c, img := driveHotspot(t, cfg, &w)
				t.Logf("shards=%d: %d mid-packet parks, %d credit wakes", cfg.Shards, w.parks, w.wakes)
				if w.parks == 0 || w.wakes == 0 {
					t.Errorf("shards=%d: %d mid-packet parks, %d credit wakes; want both > 0", cfg.Shards, w.parks, w.wakes)
				}
				if log != wantLog {
					t.Errorf("shards=%d: delivery log diverged from the oracle\ngot:  %.200s\nwant: %.200s", cfg.Shards, log, wantLog)
				}
				if c != wantC {
					t.Errorf("shards=%d: event counters diverged\ngot:  %+v\nwant: %+v", cfg.Shards, c, wantC)
				}
				if !bytes.Equal(img, wantImg) {
					t.Errorf("shards=%d: snapshot at the end of injection diverged from the oracle", cfg.Shards)
				}
			}
		})
	}
}
