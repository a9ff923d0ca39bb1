package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/snapshot"
	"repro/internal/traffic"
)

// imagedOut is one probed, checked run's comparable output: its delivery
// log, the probe trace over [stopAt, end], and the invariant checker's
// report.
type imagedOut struct {
	deliveries string
	trace      string
	report     string
}

// runImaged drives one 8x8 network of arch with a test-local injector — each
// node offers a one-flit packet to a uniform destination with probability
// 0.1 a cycle, from its own stream — for total cycles, then drains it and
// sweeps the post-drain invariants. With interrupt set, the network is
// encoded at cycle stopAt, closed, and its image decoded (DecodeInto) into a
// freshly built network with a fresh probe and checker, which runs on: the
// seam noxfault's warm campaigns cross. The injector's streams live outside
// the network and carry on across the seam.
func runImaged(t *testing.T, arch router.Arch, shards int, stopAt, total int64, interrupt bool) imagedOut {
	t.Helper()
	topo := noc.Topology{Width: 8, Height: 8}
	pat, err := traffic.ByName("uniform", topo)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	build := func() (*network.Network, *probe.Probe, *check.Checker) {
		// A probed network runs serially: a sharded leg compares deliveries
		// and checker reports only.
		var pr *probe.Probe
		if shards == 1 {
			pr = probe.New(probe.Config{RingEvents: 1 << 20, PeriodNs: physical.ClockPeriodNs(arch)})
		}
		ck := check.New(check.Config{})
		net, err := network.Build(network.Config{Topo: topo, Arch: arch, Shards: shards, Probe: pr, Check: ck})
		if err != nil {
			t.Fatal(err)
		}
		net.OnDeliver = func(p *noc.Packet, cycle int64) {
			fmt.Fprintf(&log, "%d %d>%d %d-%d\n", p.ID, p.Src, p.Dst, p.CreateCycle, cycle)
		}
		return net, pr, ck
	}
	arr, dst := forkStreams(0x5EA4, topo.Nodes())
	net, pr, ck := build()
	for cyc := int64(0); cyc < total; cyc++ {
		if interrupt && cyc == stopAt {
			img, err := snapshot.Encode(net)
			if err != nil {
				t.Fatalf("mid-run save: %v", err)
			}
			net.Close()
			net, pr, ck = build()
			if err := snapshot.DecodeInto(img, net); err != nil {
				t.Fatalf("mid-run restore: %v", err)
			}
			if got := net.Cycle(); got != stopAt {
				t.Fatalf("restored at cycle %d, want %d", got, stopAt)
			}
		}
		for id, r := range arr {
			if src := noc.NodeID(id); r.Bernoulli(0.1) {
				if d := pat.Dest(src, dst[id]); d != src {
					net.Inject(src, d, 1, 0)
				}
			}
		}
		net.Step()
	}
	if !net.Drain(8000) {
		t.Fatalf("%d packets outstanding after the drain", net.Outstanding())
	}
	net.CheckInvariants()
	final := net.Cycle()
	net.Close()

	var tb, rb bytes.Buffer
	if pr != nil {
		if err := pr.WriteChromeTraceWindow(&tb, stopAt, final); err != nil {
			t.Fatal(err)
		}
	}
	ck.WriteReport(&rb)
	return imagedOut{deliveries: log.String(), trace: tb.String(), report: rb.String()}
}

// TestMidRunSaveRestoreEquivalence pins the network-image seam inside a
// loaded run for every architecture at both execution modes: encoding the
// network mid-measurement, decoding the image into a fresh network, and
// finishing must produce the same deliveries, the same probe events from the
// seam on, and the same checker report as the run that was never
// interrupted.
func TestMidRunSaveRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-run equivalence matrix is slow")
	}
	for _, arch := range router.Archs {
		for _, shards := range []int{1, 4} {
			arch, shards := arch, shards
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				t.Parallel()
				const stopAt, total = 1200, 2100
				want := runImaged(t, arch, shards, stopAt, total, false)
				got := runImaged(t, arch, shards, stopAt, total, true)
				if got.deliveries != want.deliveries {
					t.Errorf("deliveries diverged across the save/restore seam (%d vs %d bytes)", len(got.deliveries), len(want.deliveries))
				}
				if got.trace != want.trace {
					t.Errorf("probe trace diverged across the save/restore seam (%d vs %d bytes)", len(got.trace), len(want.trace))
				}
				if got.report != want.report {
					t.Errorf("checker report diverged across the save/restore seam\ngot:\n%s\nwant:\n%s", got.report, want.report)
				}
			})
		}
	}
}
