package network

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
)

// testTamper is a deliberately broken FaultInjector used by the negative
// tests: its hooks are function fields, and Impacted answers from a fixed
// policy so the delivery oracle's lost-packet scan can be steered.
type testTamper struct {
	flit     func(site int32, cycle int64, f *noc.Flit) bool
	credits  func(site int32, cycle int64, n int) int
	stalled  func(site int32, cycle int64) bool
	impacted bool
	leaky    bool
}

func (tt *testTamper) TamperFlit(site int32, cycle int64, f *noc.Flit) bool {
	if tt.flit == nil {
		return false
	}
	return tt.flit(site, cycle, f)
}
func (tt *testTamper) TamperCredits(site int32, cycle int64, n int) int {
	if tt.credits == nil {
		return n
	}
	return tt.credits(site, cycle, n)
}
func (tt *testTamper) LinkStalled(site int32, cycle int64) bool {
	if tt.stalled == nil {
		return false
	}
	return tt.stalled(site, cycle)
}
func (tt *testTamper) BindSites(n int)          {}
func (tt *testTamper) CreditDelta(site int) int { return 0 }
func (tt *testTamper) Impacted(id uint64) bool  { return tt.impacted }
func (tt *testTamper) Leaky() bool              { return tt.leaky }

// TestCheckerCatchesXORMaskingBug plants a bug the delivery oracle must
// catch: a tamper that XORs a bit into every *encoded* flit on the wire,
// corrupting NoX superpositions so the downstream decode's bit-exactness
// identity breaks. The armed network must convert that into decode
// violations (and lost packets, since the tamper refuses to account for
// them) rather than panicking.
func TestCheckerCatchesXORMaskingBug(t *testing.T) {
	ck := check.New(check.All())
	bug := &testTamper{
		flit: func(site int32, cycle int64, f *noc.Flit) bool {
			if f.Encoded {
				f.Raw ^= 1 << 17
			}
			return false
		},
		leaky: true, // corrupted chains strand constituents in flight
	}
	topo := noc.Topology{Width: 4, Height: 4}
	n := New(Config{Topo: topo, Arch: router.NoX, Check: ck, Fault: bug})
	defer n.Close()

	// Hotspot contention manufactures encoded flits (every node fires at
	// node 0), so the bug has superpositions to corrupt.
	for round := 0; round < 10; round++ {
		for id := 1; id < topo.Nodes(); id++ {
			n.Inject(noc.NodeID(id), 0, 1, 0)
		}
		n.Step()
	}
	err := n.DrainChecked(5000, 1000)
	n.CheckInvariants()

	counts := ck.Counts()
	if counts[check.KindDecode] == 0 {
		t.Error("no decode violations recorded — the corrupted XOR chains went unnoticed")
	}
	if n.Outstanding() > 0 {
		if err == nil {
			t.Error("packets missing but DrainChecked reported success")
		}
		if counts[check.KindLost] == 0 {
			t.Error("unaccounted missing packets produced no lost-packet violations")
		}
	}
	if counts[check.KindPayload] > 0 {
		t.Errorf("bit-flips on encoded flits should surface as decode failures, got %d payload violations", counts[check.KindPayload])
	}
}

// TestWatchdogLivelock stalls every channel forever: traffic is accepted
// into source queues but nothing ever traverses, so the network never
// quiesces (interfaces hold undelivered work) and the livelock watchdog
// must trip with a diagnostic dump.
func TestWatchdogLivelock(t *testing.T) {
	ck := check.New(check.All())
	wedge := &testTamper{
		stalled:  func(int32, int64) bool { return true },
		impacted: true,
	}
	n := New(Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.NonSpec, Check: ck, Fault: wedge})
	defer n.Close()
	n.Inject(0, 3, 2, 0)
	n.Step()

	err := n.DrainChecked(3000, 200)
	if err == nil {
		t.Fatal("DrainChecked succeeded on a fully stalled network")
	}
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("wedge error does not wrap ErrNoProgress: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "livelock") {
		t.Errorf("expected a livelock headline, got: %.120s", msg)
	}
	if !strings.Contains(msg, "network diagnostic") {
		t.Error("wedge error carries no diagnostic dump")
	}
	if !strings.Contains(msg, "ni 0:") {
		t.Errorf("diagnostic dump does not show the stuck interface:\n%s", msg)
	}
	if ck.Counts()[check.KindWatchdog] == 0 {
		t.Error("watchdog trip not recorded as a violation")
	}
}

// TestWatchdogDeadlock drops every flit on the wire: a single-flit packet
// vanishes in transit, everything goes quiescent with the packet still
// outstanding, and DrainChecked must report the deadlock immediately
// instead of burning the cycle budget. The tamper accounts for the packet,
// so the oracle classifies it impacted rather than lost.
func TestWatchdogDeadlock(t *testing.T) {
	ck := check.New(check.All())
	hole := &testTamper{
		flit:     func(int32, int64, *noc.Flit) bool { return true },
		impacted: true,
		leaky:    true,
	}
	n := New(Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.NonSpec, Check: ck, Fault: hole})
	defer n.Close()
	n.Inject(0, 3, 1, 0)

	start := n.Cycle()
	err := n.DrainChecked(100000, 0)
	if err == nil {
		t.Fatal("DrainChecked succeeded though the packet was dropped")
	}
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("wedge error does not wrap ErrNoProgress: %v", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected a deadlock headline, got: %.120s", err.Error())
	}
	if burned := n.Cycle() - start; burned > 1000 {
		t.Errorf("deadlock detection stepped %d cycles instead of stopping at quiescence", burned)
	}
	n.CheckInvariants()
	if got := ck.Counts()[check.KindLost]; got != 0 {
		t.Errorf("impacted packet misclassified as lost (%d lost violations)", got)
	}
}

// driveCampaign runs one seeded fault campaign and returns a fingerprint of
// everything deterministic about it: fault totals per kind, checker counts,
// and the sorted violation list.
func driveCampaign(t *testing.T, arch router.Arch, shards int, spec fault.Spec) string {
	t.Helper()
	ck := check.New(check.All())
	inj := fault.NewInjector(spec)
	topo := noc.Topology{Width: 4, Height: 4}
	n := New(Config{Topo: topo, Arch: arch, Shards: shards, Check: ck, Fault: inj})
	defer n.Close()

	rng := sim.NewRNG(spec.Seed ^ 0xD1CE)
	for cyc := 0; cyc < 600; cyc++ {
		for id := 0; id < topo.Nodes(); id++ {
			if rng.Float64() >= 0.05 {
				continue
			}
			dst := rng.Intn(topo.Nodes() - 1)
			if dst >= id {
				dst++
			}
			length := 1
			if rng.Intn(4) == 0 {
				length = 4
			}
			n.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
		}
		n.Step()
	}
	drainErr := n.DrainChecked(8000, 2000)
	n.CheckInvariants()

	var sb strings.Builder
	fmt.Fprintf(&sb, "faults=%v impacted=%d injected=%d delivered=%d wedged=%v counts=%v\n",
		inj.Totals(), inj.ImpactedCount(), ck.Injected(), ck.Delivered(), drainErr != nil, ck.Counts())
	for _, v := range ck.Violations() {
		fmt.Fprintf(&sb, "%s\n", v)
	}
	return sb.String()
}

// TestFaultCampaignShardInvariance is the tentpole determinism guarantee:
// an identical seeded campaign — faults and all their downstream
// consequences included — produces byte-identical results at every shard
// count, on every architecture.
func TestFaultCampaignShardInvariance(t *testing.T) {
	spec := fault.Spec{Seed: 0xCAFE, BitFlip: 0.002, Drop: 0.0005, Stall: 0.0005, CreditLoss: 0.0002, CreditDup: 0.0002}
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			want := driveCampaign(t, arch, 1, spec)
			if strings.Contains(want, "faults=[0 0 0 0 0]") {
				t.Fatal("campaign fired no faults — the invariance check would be vacuous")
			}
			for _, shards := range []int{2, 4} {
				if got := driveCampaign(t, arch, shards, spec); got != want {
					t.Errorf("shards=%d diverged from serial\nserial: %.400s\nshards: %.400s", shards, want, got)
				}
			}
		})
	}
}

// TestFaultCampaignReplay: the same spec replayed twice is bit-identical.
func TestFaultCampaignReplay(t *testing.T) {
	spec := fault.Spec{Seed: 0xBEE5, BitFlip: 0.003, Drop: 0.001}
	a := driveCampaign(t, router.NoX, 1, spec)
	b := driveCampaign(t, router.NoX, 1, spec)
	if a != b {
		t.Errorf("replay diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestCheckerImageShardInvariant: the state image of a checker-armed network
// under bit flips and drops is a function of the run, not of the order in
// which shard workers meet its violations — at every checkpoint, serial and
// on two and four shards. The cap on stored violations fills during a step
// that meets several, so the stored set past the cap is compared too.
// Mutation-checked: storing violations in arrival order fails it, and so
// does a cap that keeps the first violations to arrive.
func TestCheckerImageShardInvariant(t *testing.T) {
	const keep = 57
	images := func(shards int) []string {
		ck := check.New(check.Config{Delivery: true, Conservation: true, Protocol: true, MaxViolations: keep})
		n := New(Config{
			Topo: noc.Topology{Width: 3, Height: 5}, Arch: router.SpecFast, Shards: shards, BufferDepth: 3, SinkDepth: 5,
			Check: ck, Fault: fault.NewInjector(fault.Spec{Seed: 0x1ED6E, BitFlip: 1e-3, Drop: 1e-3}),
		})
		defer n.Close()
		out := imagesAt(t, n, 0x0DE5, 40, 95, 260, 700, 1500)
		if ck.Total() <= keep {
			t.Fatalf("%d violations do not fill the cap of %d", ck.Total(), keep)
		}
		return out
	}
	want := images(1)
	for _, shards := range []int{2, 4} {
		for run := 0; run < 3; run++ {
			compareTraces(t, fmt.Sprintf("run %d on %d shards", run, shards), images(shards), want)
		}
	}
}
