package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRingWrap checks the ring keeps exactly the most recent events in
// chronological order once it wraps, and accounts for every overwrite.
func TestRingWrap(t *testing.T) {
	p := New(Config{RingEvents: 8})
	if len(p.ring) != 8 {
		t.Fatalf("ring size %d, want 8", len(p.ring))
	}
	for c := int64(0); c < 21; c++ {
		p.Link(c, int(c), 0, uint64(c), 0)
	}
	if p.EventCount() != 21 {
		t.Errorf("EventCount %d, want 21", p.EventCount())
	}
	if p.Dropped() != 13 {
		t.Errorf("Dropped %d, want 13", p.Dropped())
	}
	evs := p.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(13 + i); ev.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d (oldest-first order)", i, ev.Cycle, want)
		}
	}
}

// TestRingRoundsUpToPowerOfTwo pins the capacity contract the mask-index
// emit path depends on.
func TestRingRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 1}, {3, 4}, {8, 8}, {1000, 1024}} {
		if p := New(Config{RingEvents: tc.ask}); len(p.ring) != tc.want {
			t.Errorf("RingEvents %d: ring size %d, want %d", tc.ask, len(p.ring), tc.want)
		}
	}
}

// TestEmitDoesNotAllocate is the package-local half of the zero-cost
// contract: recording an event into the preallocated ring must not allocate
// (the network-level half — nil probes costing nothing — is pinned by
// internal/network's TestSteadyStateAllocs at 0 allocs/op).
func TestEmitDoesNotAllocate(t *testing.T) {
	p := New(Config{RingEvents: 64})
	p.Attach(2, 2, 5, 4, 4)
	if avg := testing.AllocsPerRun(100, func() {
		p.Traverse(1, 0, 1, 42, 0)
		p.Collision(1, 0, 1, 2, 0xFF)
		p.ModeCycle(0, false)
		p.Occupancy(0, 3)
	}); avg != 0 {
		t.Errorf("emit path allocates %.1f allocs per cycle, want 0", avg)
	}
}

// TestAttachOnceAndOutOfRange checks the sharing and defensiveness
// contracts: a second Attach (lockstep multi-network setups share one
// probe) keeps the first geometry, and emits for nodes outside it count in
// totals without touching router metrics.
func TestAttachOnceAndOutOfRange(t *testing.T) {
	p := New(Config{RingEvents: 16})
	p.Attach(2, 2, 5, 4, 4)
	p.Attach(8, 8, 5, 64, 4)
	if w, h, _ := p.Geometry(); w != 2 || h != 2 {
		t.Errorf("second Attach changed geometry to %dx%d", w, h)
	}
	p.Traverse(0, 63, 0, 1, 0) // node 63 does not exist on the 2x2 grid
	if p.Totals().Traversals != 1 {
		t.Errorf("out-of-range traverse not counted in totals")
	}
	for _, m := range p.Routers() {
		if m.Traversals != 0 {
			t.Errorf("out-of-range traverse credited to router %d", m.Node)
		}
	}
}

// TestSamplerDeltasAndLockstepTicks checks the time-series sampler emits
// interval deltas (not running totals) and ignores the duplicate per-cycle
// ticks a lockstep dual-network setup produces.
func TestSamplerDeltasAndLockstepTicks(t *testing.T) {
	p := New(Config{RingEvents: 16, SampleEvery: 10})
	p.Attach(2, 2, 5, 4, 4)
	for c := int64(1); c <= 20; c++ {
		p.Traverse(c, 0, 0, 1, 0)
		p.Tick(c, 3)
		p.Tick(c, 3) // second physical network's tick for the same cycle
	}
	s := p.Samples()
	if len(s) != 2 {
		t.Fatalf("got %d samples, want 2", len(s))
	}
	for i, want := range []int64{10, 20} {
		if s[i].Cycle != want || s[i].Traversals != 10 {
			t.Errorf("sample %d: cycle %d traversals %d, want cycle %d traversals 10",
				i, s[i].Cycle, s[i].Traversals, want)
		}
	}
}

// TestExportersDeterministic checks two probes fed the identical stream
// render byte-identical output on every exporter — the property the
// parallel-determinism tests at the network level rely on.
func TestExportersDeterministic(t *testing.T) {
	build := func() *Probe {
		p := New(Config{RingEvents: 64, SampleEvery: 5, PeriodNs: 0.76})
		p.Attach(2, 2, 5, 4, 4)
		p.Inject(0, 1, 7, 2)
		p.BufWrite(1, 0, 4, 7, 0)
		p.Traverse(2, 0, 1, 7, 0)
		p.Collision(2, 0, 1, 2, 0xDEAD)
		p.Abort(3, 1, 2, 0)
		p.ModeChange(3, 1, 2, 0, 1)
		p.Decode(4, 1, 0, 7)
		p.Link(4, 0, 1, 7, 0)
		p.CreditStall(5, 2, 3)
		p.NIBufWrite(5, 1, 0xBEEF, -1)
		p.NIDecode(6, 1, 7)
		p.NIBufRead(6, 1, 1)
		p.Deliver(7, 1, 7, 6)
		p.Tick(5, 9)
		p.Tick(10, 2)
		return p
	}
	exporters := map[string]func(*Probe, *bytes.Buffer) error{
		"chrome":     func(p *Probe, b *bytes.Buffer) error { return p.WriteChromeTrace(b) },
		"waveform":   func(p *Probe, b *bytes.Buffer) error { return p.WriteWaveform(b) },
		"routers":    func(p *Probe, b *bytes.Buffer) error { return p.WriteRouterCSV(b) },
		"heatmap":    func(p *Probe, b *bytes.Buffer) error { return p.WriteHeatmapCSV(b) },
		"timeseries": func(p *Probe, b *bytes.Buffer) error { return p.WriteTimeSeriesCSV(b) },
	}
	for name, write := range exporters {
		var a, b bytes.Buffer
		if err := write(build(), &a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := write(build(), &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Len() == 0 {
			t.Errorf("%s: empty output", name)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: identical streams rendered differently", name)
		}
	}
}

// TestChromeTraceShape checks the exported JSON parses and routes events to
// the right tracks: router events on pid = node / tid = port, NI-side
// events (Port = -1) on the offset NI pid range.
func TestChromeTraceShape(t *testing.T) {
	p := New(Config{RingEvents: 64, PeriodNs: 0.76})
	p.Attach(2, 2, 5, 4, 4)
	p.Traverse(2, 3, 1, 7, 0)
	p.NIDecode(6, 1, 7)
	p.ModeChange(3, 1, 2, 0, 1)

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var sawTraverse, sawNIDecode, sawMode bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "traverse" && ev.Pid == 3 && ev.Tid == 1 && ev.Ph == "X":
			sawTraverse = true
		case ev.Name == "decode" && ev.Pid == niPid+1 && ev.Tid == 0:
			sawNIDecode = true
		case strings.HasPrefix(ev.Name, "mode ") && ev.Pid == 1:
			sawMode = true
		}
	}
	if !sawTraverse || !sawNIDecode || !sawMode {
		t.Errorf("missing tracks: traverse@r3=%v niDecode@ni1=%v mode@r1=%v",
			sawTraverse, sawNIDecode, sawMode)
	}
}
