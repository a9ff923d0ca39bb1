package network

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
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
// list: the quiescence fast path must be bit-exact against the
// always-evaluate reference — same deliveries at the same cycles, same
// energy event counts — for every router architecture.
func TestQuiescenceEquivalence(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch}
			ref := cfg
			ref.AlwaysActive = true
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
			ref.AlwaysActive = true
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
