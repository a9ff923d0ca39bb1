package network

import (
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// buildHard assembles a checker-armed 4x4 network with the given hard-fault
// spec and (optionally) retransmission.
func buildHard(t *testing.T, arch router.Arch, shards int, spec fault.Spec, rt *RetransmitConfig) (*Network, *check.Checker, *fault.Injector) {
	t.Helper()
	ck := check.New(check.All())
	inj := fault.NewInjector(spec)
	net, err := Build(Config{
		Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch,
		Shards: shards, Check: ck, Fault: inj, Retransmit: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net, ck, inj
}

// driveUniform injects seeded uniform-random traffic for cycles cycles.
func driveUniform(net *Network, seed uint64, cycles int64, load float64) {
	rng := sim.NewRNG(seed)
	cores := net.Cores()
	for cyc := int64(0); cyc < cycles; cyc++ {
		for id := 0; id < cores; id++ {
			if rng.Float64() >= load {
				continue
			}
			dst := rng.Intn(cores - 1)
			if dst >= id {
				dst++
			}
			length := 1
			if rng.Float64() < 0.25 {
				length = 4
			}
			net.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
		}
		net.Step()
	}
}

// assertAccounted verifies the degradation contract: zero violations and
// every injected packet either delivered or retired as undeliverable.
func assertAccounted(t *testing.T, net *Network, ck *check.Checker) {
	t.Helper()
	net.CheckInvariants()
	if got := ck.Total(); got != 0 {
		t.Errorf("%d violations recorded", got)
	}
	if d, u, i := ck.Delivered(), net.Undeliverable(), ck.Injected(); d+u != i {
		t.Errorf("accounting hole: injected=%d delivered=%d undeliverable=%d", i, d, u)
	}
	if out := net.Outstanding(); out != 0 {
		t.Errorf("%d packets outstanding after drain", out)
	}
}

// TestDeadLinkAllArchs: a single inter-router link dead from cycle 0. Every
// architecture must route around it via the up*/down* fault table with zero
// loss — the mesh stays connected, so nothing may go undeliverable.
func TestDeadLinkAllArchs(t *testing.T) {
	spec := fault.Spec{Seed: 7, DeadLinks: []fault.DeadLink{{A: 5, B: 6}}}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			net, ck, _ := buildHard(t, arch, 0, spec, nil)
			driveUniform(net, 0xABC, 800, 0.05)
			if err := net.DrainChecked(0, 0); err != nil {
				t.Fatal(err)
			}
			assertAccounted(t, net, ck)
			if u := net.Undeliverable(); u != 0 {
				t.Errorf("%d undeliverable on a connected mesh", u)
			}
			if e := net.Epochs(); e != 0 {
				t.Errorf("%d reconfiguration epochs for an at-construction fault", e)
			}
		})
	}
}

// TestMidRunKillRecovery: a link dies mid-run with retransmission armed.
// The reconfiguration epoch flushes wormhole state threaded through the dead
// link; end-to-end retransmission must recover every flushed packet, so the
// run ends with full delivery and zero violations on every architecture.
func TestMidRunKillRecovery(t *testing.T) {
	spec := fault.Spec{Seed: 11, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 300}}}
	rt := &RetransmitConfig{Timeout: 64, Retries: 6}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			net, ck, _ := buildHard(t, arch, 0, spec, rt)
			driveUniform(net, 0xDEF, 800, 0.06)
			if err := net.DrainChecked(0, 0); err != nil {
				t.Fatal(err)
			}
			assertAccounted(t, net, ck)
			if e := net.Epochs(); e != 1 {
				t.Errorf("epochs = %d, want 1", e)
			}
			if d, i := ck.Delivered(), ck.Injected(); d != i {
				t.Errorf("delivered %d of %d despite retransmission on a connected mesh", d, i)
			}
		})
	}
}

// TestMidRunKillNoRetransmit: without retransmission, packets flushed by the
// epoch are retired as undeliverable — losses are attributable to the
// reconfiguration, never silent.
func TestMidRunKillNoRetransmit(t *testing.T) {
	spec := fault.Spec{Seed: 13, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 300}}}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			net, ck, _ := buildHard(t, arch, 0, spec, nil)
			driveUniform(net, 0x123, 800, 0.06)
			if err := net.DrainChecked(0, 0); err != nil {
				t.Fatal(err)
			}
			assertAccounted(t, net, ck)
			if e := net.Epochs(); e != 1 {
				t.Errorf("epochs = %d, want 1", e)
			}
		})
	}
}

// TestPartitionNoFalseDeadlock cuts corner router 0 off at cycle 0 and keeps
// injecting traffic to and from its core. Packets crossing the partition
// must be retired as undeliverable — immediately at injection — so the
// drain terminates cleanly instead of reporting the quiescent-with-
// outstanding state as a deadlock (the regression this test pins).
func TestPartitionNoFalseDeadlock(t *testing.T) {
	spec := fault.Spec{Seed: 17, DeadLinks: []fault.DeadLink{{A: 0, B: 1}, {A: 0, B: 4}}}
	rt := &RetransmitConfig{Timeout: 64, Retries: 3}
	net, ck, _ := buildHard(t, router.NoX, 0, spec, rt)
	driveUniform(net, 0x456, 600, 0.06)
	if err := net.DrainChecked(0, 0); err != nil {
		t.Fatalf("drain reported a wedge on a partitioned-but-accounted network: %v", err)
	}
	assertAccounted(t, net, ck)
	if u := net.Undeliverable(); u == 0 {
		t.Error("no undeliverable packets despite a partitioned core")
	}
	if p := net.PartitionedPairs(); p == 0 {
		t.Error("PartitionedPairs = 0 with router 0 cut off")
	}
}

// TestMidRunPartition cuts router 0 off at cycle 400, while traffic is in
// flight. The epoch must retire unreachable queue/assembly/retransmission
// state, and the drain must fast-forward through the surviving
// retransmission timeouts (RecoveryPending) rather than wedging.
func TestMidRunPartition(t *testing.T) {
	spec := fault.Spec{Seed: 19, DeadLinks: []fault.DeadLink{{A: 0, B: 1, At: 400}, {A: 0, B: 4, At: 400}}}
	rt := &RetransmitConfig{Timeout: 32, Retries: 2}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			net, ck, _ := buildHard(t, arch, 0, spec, rt)
			driveUniform(net, 0x789, 700, 0.06)
			if err := net.DrainChecked(0, 0); err != nil {
				t.Fatal(err)
			}
			assertAccounted(t, net, ck)
			if e := net.Epochs(); e != 1 {
				t.Errorf("epochs = %d, want 1", e)
			}
			if u := net.Undeliverable(); u == 0 {
				t.Error("no undeliverable packets despite a mid-run partition")
			}
		})
	}
}

// TestHardFaultShardInvariance: the full mid-run-kill + retransmission
// scenario must be bit-identical between the serial kernel and sharded
// execution — the complete network state (including retransmission entries
// and the fault injector's dynamic state) serializes to the same bytes.
func TestHardFaultShardInvariance(t *testing.T) {
	spec := fault.Spec{Seed: 23, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 300}, {A: 9, B: 10, At: 450}}}
	rt := &RetransmitConfig{Timeout: 48, Retries: 4}
	run := func(shards int) ([]byte, int64, int64) {
		net, ck, _ := buildHard(t, router.NoX, shards, spec, rt)
		driveUniform(net, 0xAAA, 700, 0.06)
		if err := net.DrainChecked(0, 0); err != nil {
			t.Fatal(err)
		}
		e := codec.NewEncoder()
		if err := net.SaveState(e); err != nil {
			t.Fatal(err)
		}
		return e.Bytes(), ck.Delivered(), net.Undeliverable()
	}
	ref, refD, refU := run(0)
	for _, shards := range []int{1, 4} {
		got, d, u := run(shards)
		if d != refD || u != refU {
			t.Errorf("shards=%d: delivered/undeliverable %d/%d, serial %d/%d", shards, d, u, refD, refU)
		}
		if string(got) != string(ref) {
			t.Errorf("shards=%d: final state diverges from serial (%d vs %d bytes)", shards, len(got), len(ref))
		}
	}
}

// TestHardFaultSnapshotRoundTrip checkpoints a retransmission-armed run
// twice — before the scheduled kill and after the reconfiguration epoch —
// and verifies a restored network continues bit-identically to the
// uninterrupted original in both cases. The pre-kill restore proves the
// kill-cursor re-sync (the epoch must still fire); the post-epoch restore
// proves the route-table re-derivation (the fresh network still routes
// fault-free until RestoreState rebuilds the fault table).
func TestHardFaultSnapshotRoundTrip(t *testing.T) {
	spec := fault.Spec{Seed: 29, DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 300}}}
	rt := &RetransmitConfig{Timeout: 48, Retries: 4}
	for _, splitAt := range []int64{250, 350} {
		ref, _, _ := buildHard(t, router.NoX, 0, spec, rt)
		rng := sim.NewRNG(0xBBB)
		cores := ref.Cores()
		inject := func(net *Network, r *sim.RNG) {
			for id := 0; id < cores; id++ {
				if r.Float64() >= 0.06 {
					continue
				}
				dst := r.Intn(cores - 1)
				if dst >= id {
					dst++
				}
				net.Inject(noc.NodeID(id), noc.NodeID(dst), 2, 0)
			}
		}
		var img []byte
		var rngAtSplit *sim.RNG
		for cyc := int64(0); cyc < 600; cyc++ {
			if cyc == splitAt {
				e := codec.NewEncoder()
				if err := ref.SaveState(e); err != nil {
					t.Fatal(err)
				}
				img = e.Bytes()
				rngAtSplit = new(sim.RNG)
				*rngAtSplit = *rng
			}
			inject(ref, rng)
			ref.Step()
		}
		if err := ref.DrainChecked(0, 0); err != nil {
			t.Fatal(err)
		}
		eRef := codec.NewEncoder()
		if err := ref.SaveState(eRef); err != nil {
			t.Fatal(err)
		}

		cut, _, _ := buildHard(t, router.NoX, 0, spec, rt)
		if err := cut.RestoreState(codec.NewDecoder(img)); err != nil {
			t.Fatalf("split@%d: restore: %v", splitAt, err)
		}
		for cyc := splitAt; cyc < 600; cyc++ {
			inject(cut, rngAtSplit)
			cut.Step()
		}
		if err := cut.DrainChecked(0, 0); err != nil {
			t.Fatal(err)
		}
		eCut := codec.NewEncoder()
		if err := cut.SaveState(eCut); err != nil {
			t.Fatal(err)
		}
		if string(eCut.Bytes()) != string(eRef.Bytes()) {
			t.Errorf("split@%d: restored run diverges from uninterrupted run (%d vs %d bytes)",
				splitAt, len(eCut.Bytes()), len(eRef.Bytes()))
		}
	}
}

// TestEscalationPromotesLink: transient drops beside a scheduled mid-run
// link kill. The kill must fire a reconfiguration epoch, and retransmission
// must keep the accounting exact through both the transient losses and the
// epoch's flush.
func TestEscalationPromotesLink(t *testing.T) {
	spec := fault.Spec{
		Seed: 31, Drop: 0.002,
		DeadLinks: []fault.DeadLink{{A: 5, B: 6, At: 450}},
	}
	rt := &RetransmitConfig{Timeout: 64, Retries: 8}
	net, ck, inj := buildHard(t, router.NonSpec, 0, spec, rt)
	driveUniform(net, 0xCCC, 900, 0.06)
	if err := net.DrainChecked(0, 0); err != nil {
		t.Fatal(err)
	}
	if inj.KindTotal(fault.Drop) == 0 {
		t.Fatal("no transient drops fired")
	}
	if e := net.Epochs(); e == 0 {
		t.Error("the scheduled kill fired no reconfiguration epoch")
	}
	net.CheckInvariants()
	if d, u, i := ck.Delivered(), net.Undeliverable(), ck.Injected(); d+u != i {
		t.Errorf("accounting hole: injected=%d delivered=%d undeliverable=%d", i, d, u)
	}
}
