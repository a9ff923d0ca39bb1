package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/router"
)

// TestProbeTraceReconciliation is the acceptance gate for the observability
// layer on the paper's router: a probed 4x4 NoX run under contention-heavy
// traffic must (a) export Chrome trace JSON that actually parses and
// contains XOR-collision and Recovery/Scheduled mode-transition events,
// (b) report per-router metrics that sum to the probe's totals, and
// (c) reconcile those totals against the power-counter event counts and
// the network's own delivery accounting, so the two independent counting
// paths cross-check each other.
func TestProbeTraceReconciliation(t *testing.T) {
	pr := probe.New(probe.Config{RingEvents: 1 << 17, SampleEvery: 100})
	cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Probe: pr}
	fp, counters := driveBursty(t, cfg, 0xBEEF)
	_ = fp

	var buf bytes.Buffer
	if err := pr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("Chrome trace is not valid JSON (%d bytes)", buf.Len())
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var collisions, modes int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "collision":
			collisions++
		case len(ev.Name) > 5 && ev.Name[:5] == "mode ":
			modes++
		}
	}
	if collisions == 0 {
		t.Error("trace JSON has no XOR-collision events")
	}
	if modes == 0 {
		t.Error("trace JSON has no Recovery/Scheduled mode-transition events")
	}

	tot := pr.Totals()
	if int64(collisions) != tot.Collisions {
		t.Errorf("trace JSON has %d collision events, totals say %d (ring dropped %d)",
			collisions, tot.Collisions, pr.Dropped())
	}

	// Per-router metrics must sum to the probe's totals (NI-side buffer
	// events are counted in totals only, so the buffer columns sum to
	// totals minus the NI share — checked via the power counters below).
	var sum probe.RouterMetrics
	for _, m := range pr.Routers() {
		sum.Traversals += m.Traversals
		sum.Collisions += m.Collisions
		sum.Aborts += m.Aborts
	}
	if sum.Traversals != tot.Traversals || sum.Collisions != tot.Collisions || sum.Aborts != tot.Aborts {
		t.Errorf("per-router sums diverge from totals: routers {trav %d coll %d abort %d}, totals {%d %d %d}",
			sum.Traversals, sum.Collisions, sum.Aborts, tot.Traversals, tot.Collisions, tot.Aborts)
	}

	// Cross-check against the independently maintained power counters.
	checks := []struct {
		name      string
		got, want int64
	}{
		{"traversals vs Xbar", tot.Traversals, counters.Xbar},
		{"collisions", tot.Collisions, counters.Collisions},
		{"aborts", tot.Aborts, counters.Aborts},
		{"buffer writes", tot.BufWrites, counters.BufWrite},
		{"buffer reads", tot.BufReads, counters.BufRead},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: probe %d, power counters %d", c.name, c.got, c.want)
		}
	}
}

// TestProbeDeliveryAccounting checks the probe's inject/deliver totals
// against the network's own packet accounting on every architecture.
func TestProbeDeliveryAccounting(t *testing.T) {
	for _, arch := range router.Archs {
		pr := probe.New(probe.Config{RingEvents: 1 << 16})
		net := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Probe: pr})
		for i := 0; i < 40; i++ {
			net.Inject(noc.NodeID(i%16), noc.NodeID((i*7+3)%16), 1+i%3, 0)
			net.Step()
		}
		if !net.Drain(2000) {
			t.Fatalf("%v: did not drain", arch)
		}
		tot := pr.Totals()
		if tot.Injects != net.Injected() || tot.Delivers != net.Delivered() {
			t.Errorf("%v: probe injects/delivers %d/%d, network %d/%d",
				arch, tot.Injects, tot.Delivers, net.Injected(), net.Delivered())
		}
	}
}

// TestQuiescenceEquivalenceProbed extends the quiescence safety net to the
// observability layer: with a probe attached, the fast path must emit a
// bit-exact event stream against the oracle's eager evaluation — compared
// as serialized Chrome traces, which pin every event's kind, cycle, and
// location. (Per-router mode-residency and occupancy metrics are sampled
// per evaluated cycle and legitimately differ when quiescent routers skip
// evaluation; the event stream and event totals must not.)
func TestQuiescenceEquivalenceProbed(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			run := func(oracle bool) (string, probe.Totals) {
				pr := probe.New(probe.Config{RingEvents: 1 << 17})
				cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch,
					Probe: pr, Oracle: oracle}
				driveBursty(t, cfg, 0xBEEF)
				var buf bytes.Buffer
				if err := pr.WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String(), pr.Totals()
			}
			gotTrace, gotTot := run(false)
			wantTrace, wantTot := run(true)
			if gotTrace != wantTrace {
				t.Errorf("probed event stream diverged between fast path and reference (%d vs %d bytes)",
					len(gotTrace), len(wantTrace))
			}
			if got, want := fmt.Sprintf("%+v", gotTot), fmt.Sprintf("%+v", wantTot); got != want {
				t.Errorf("probe totals diverged\nfast: %s\nref:  %s", got, want)
			}
		})
	}
}
