package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/noc"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{Seed: 1, BitFlip: 0.5, Drop: 0.1, Stall: 0.999},
		{CreditLoss: 0.4, CreditDup: 0.5},
		{Start: 10, End: 20, StallCycles: 3},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec rejected: %+v: %v", s, err)
		}
	}
	bad := []Spec{
		{BitFlip: 1},
		{Drop: -0.1},
		{Stall: 2},
		{CreditLoss: 0.6, CreditDup: 0.5},
		{StallCycles: -1},
		{Start: -1},
		{Start: 20, End: 10},
		{Start: 5, End: 5},
	}
	for _, s := range bad {
		err := s.Validate()
		if err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("validation error does not wrap ErrBadSpec: %v", err)
		}
	}
}

// TestSpecValidateRejectsNonFinite: a NaN or infinite rate is refused with
// ErrBadSpec naming its field. NaN fails every comparison, and the check once
// let it through: noxfault -bitflip NaN reported every campaign clean.
func TestSpecValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Spec, float64)
	}{
		{"bit_flip_rate", func(s *Spec, v float64) { s.BitFlip = v }},
		{"drop_rate", func(s *Spec, v float64) { s.Drop = v }},
		{"stall_rate", func(s *Spec, v float64) { s.Stall = v }},
		{"credit_loss_rate", func(s *Spec, v float64) { s.CreditLoss = v }},
		{"credit_dup_rate", func(s *Spec, v float64) { s.CreditDup = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var s Spec
			f.set(&s, v)
			err := s.Validate()
			if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate returned %v, want ErrBadSpec naming %s", f.name, v, err, f.name)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(`{"seed":7,"bit_flip_rate":0.01,"stall_rate":0.002,"stall_cycles":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.BitFlip != 0.01 || s.StallCycles != 16 {
		t.Errorf("parsed spec wrong: %+v", s)
	}
	for _, in := range []string{
		`{"seed":7,"unknown_field":1}`, // strict decoding
		`{"bit_flip_rate":1.5}`,        // out of range
		`{"seed":`,                     // truncated
		// Dead routers and link escalation are not modelled: a spec naming
		// them fails instead of running without them.
		`{"seed":4,"dead_routers":[{"router":0},{"router":7,"at_cycle":1000}]}`,
		`{"seed":11,"drop_rate":0.01,"escalate":{"threshold":3,"window":200}}`,
		`{"seed":2,"dead_links":[{"a":0,"b":1}],"dead_routers":[{"router":15}]}`,
	} {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("ParseSpec accepted %q", in)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpec error for %q does not wrap ErrBadSpec: %v", in, err)
		}
	}
}

// TestBindTopologyFixesSchedule: BindTopology resolves the spec's dead links
// once — each link at its earliest listed cycle, in both directions — and
// the fault set at any cycle is a function of the spec alone.
func TestBindTopologyFixesSchedule(t *testing.T) {
	sys := noc.System{Grid: noc.Topology{Width: 4, Height: 4}, Concentration: 1}
	sites := []noc.LinkSite{
		{Src: 5, Dst: 6, Core: -1}, {Src: 6, Dst: 5, Core: -1},
		{Src: 1, Dst: 2, Core: -1}, {Src: 9, Dst: 10, Core: -1},
		{Src: -1, Dst: 5, Core: 5}, {Src: 5, Dst: -1, Core: 5},
	}
	inj := NewInjector(Spec{Seed: 1, DeadLinks: []DeadLink{
		{A: 5, B: 6, At: 300}, {A: 6, B: 5, At: 100}, {A: 2, B: 1, At: 100}, {A: 9, B: 10},
	}})
	inj.BindSites(len(sites))
	inj.BindTopology(sys, sites)
	if got := inj.ScheduledKillCycles(); len(got) != 1 || got[0] != 100 {
		t.Errorf("scheduled kills %v, want [100]", got)
	}
	for _, c := range []struct {
		cycle int64
		want  string
	}{{0, "1 dead (L9-10)"}, {99, "1 dead (L9-10)"}, {100, "3 dead (L1-2 L5-6 L9-10)"}, {1 << 40, "3 dead (L1-2 L5-6 L9-10)"}} {
		if got := inj.FaultSet(c.cycle).String(); got != c.want {
			t.Errorf("FaultSet(%d) = %q, want %s", c.cycle, got, c.want)
		}
	}
	for site, dead := range []bool{true, true, true, true, false, false} {
		if got := inj.LinkStalled(int32(site), 100); got != dead {
			t.Errorf("site %d dead at 100: %v, want %v", site, got, dead)
		}
		if inj.LinkStalled(int32(site), 99) && site != 3 {
			t.Errorf("site %d dead at 99", site)
		}
	}
}

// TestDecisionsDeterministic: every tamper decision is a pure function of
// (seed, site, cycle), so two injectors with the same spec agree on every
// decision regardless of query order.
func TestDecisionsDeterministic(t *testing.T) {
	spec := Spec{Seed: 0x51CC, BitFlip: 0.05, Drop: 0.02, Stall: 0.01, CreditLoss: 0.03, CreditDup: 0.02}
	a, b := NewInjector(spec), NewInjector(spec)
	a.BindSites(8)
	b.BindSites(8)
	pkt := noc.NewPacket(1, 0, 5, 1, 0, 0)

	// Query b in reverse order to prove order-independence.
	type dec struct {
		dropped bool
		raw     uint64
		stalled bool
		credits int
	}
	query := func(inj *Injector, site int32, cycle int64) dec {
		f := &noc.Flit{Packet: pkt, Raw: 0xABCD_EF01_2345_6789}
		d := dec{}
		d.dropped = inj.TamperFlit(site, cycle, f)
		d.raw = f.Raw
		d.stalled = inj.LinkStalled(site, cycle)
		d.credits = inj.TamperCredits(site, cycle, 2)
		return d
	}
	var forward []dec
	for site := int32(0); site < 8; site++ {
		for cycle := int64(0); cycle < 200; cycle++ {
			forward = append(forward, query(a, site, cycle))
		}
	}
	i := len(forward)
	for site := int32(7); site >= 0; site-- {
		for cycle := int64(199); cycle >= 0; cycle-- {
			i--
			if got := query(b, site, cycle); got != forward[i] {
				t.Fatalf("decision diverged at site %d cycle %d: %+v vs %+v", site, cycle, got, forward[i])
			}
		}
	}
	if a.Total() == 0 {
		t.Fatal("no faults fired at these rates — determinism check is vacuous")
	}
}

// TestAtMostOneFaultPerFlit: a drop decision suppresses the flip at the
// same coordinates so the two rates remain independent knobs.
func TestAtMostOneFaultPerFlit(t *testing.T) {
	spec := Spec{Seed: 3, Drop: 0.999999, BitFlip: 0.999999}
	inj := NewInjector(spec)
	inj.BindSites(1)
	pkt := noc.NewPacket(9, 0, 1, 1, 0, 0)
	for cycle := int64(0); cycle < 100; cycle++ {
		f := &noc.Flit{Packet: pkt, Raw: 42}
		if !inj.TamperFlit(0, cycle, f) {
			t.Fatalf("near-certain drop did not fire at cycle %d", cycle)
		}
		if f.Raw != 42 {
			t.Fatalf("dropped flit was also flipped at cycle %d", cycle)
		}
	}
	if inj.KindTotal(BitFlip) != 0 {
		t.Errorf("flips counted despite drops taking priority: %d", inj.KindTotal(BitFlip))
	}
	if inj.CreditDelta(0) != -100 {
		t.Errorf("drop credit delta = %d, want -100", inj.CreditDelta(0))
	}
}

// TestStallWindow: a stall decision at cycle t keeps the channel stalled
// for exactly StallCycles cycles, and the window is counted once.
func TestStallWindow(t *testing.T) {
	// Find a seed/cycle with an isolated stall start.
	spec := Spec{Seed: 0x57A1, Stall: 0.01, StallCycles: 5}
	inj := NewInjector(spec)
	inj.BindSites(1)
	start := int64(-1)
	for cycle := int64(0); cycle < 10000; cycle++ {
		h := inj.roll(saltStall, 0, cycle, 0)
		if h < spec.Stall {
			// Require isolation: no other start within StallCycles either side.
			isolated := true
			for d := int64(1); d < 10; d++ {
				if inj.roll(saltStall, 0, cycle-d, 0) < spec.Stall || inj.roll(saltStall, 0, cycle+d, 0) < spec.Stall {
					isolated = false
					break
				}
			}
			if isolated && cycle > 10 {
				start = cycle
				break
			}
		}
	}
	if start < 0 {
		t.Fatal("no isolated stall start found in 10k cycles")
	}
	if inj.LinkStalled(0, start-1) {
		t.Error("stalled before the window start")
	}
	for c := start; c < start+5; c++ {
		if !inj.LinkStalled(0, c) {
			t.Errorf("not stalled at cycle %d inside window [%d,%d)", c, start, start+5)
		}
	}
	if inj.LinkStalled(0, start+5) {
		t.Error("still stalled after the window ended")
	}
	if got := inj.KindTotal(Stall); got != 1 {
		t.Errorf("stall window counted %d times, want 1", got)
	}
}

// TestImpactedTracksEncodedConstituents: tampering an encoded flit marks
// every constituent packet impacted.
func TestImpactedTracksEncodedConstituents(t *testing.T) {
	spec := Spec{Seed: 1, BitFlip: 0.999999}
	inj := NewInjector(spec)
	inj.BindSites(1)
	p1 := noc.NewPacket(11, 0, 1, 1, 0, 0)
	p2 := noc.NewPacket(22, 2, 3, 1, 0, 0)
	enc := &noc.Flit{Encoded: true, Raw: 99, Parts: []*noc.Flit{noc.NewFlit(p1, 0), noc.NewFlit(p2, 0)}}
	inj.TamperFlit(0, 0, enc)
	if !inj.Impacted(11) || !inj.Impacted(22) {
		t.Error("encoded constituents not marked impacted")
	}
	if inj.Impacted(33) {
		t.Error("unrelated packet marked impacted")
	}
	if inj.ImpactedCount() != 2 {
		t.Errorf("impacted count = %d, want 2", inj.ImpactedCount())
	}
}

func TestWindowGating(t *testing.T) {
	spec := Spec{Seed: 4, Drop: 0.999999, Start: 100, End: 200}
	inj := NewInjector(spec)
	inj.BindSites(1)
	pkt := noc.NewPacket(1, 0, 1, 1, 0, 0)
	for _, cycle := range []int64{0, 99, 200, 5000} {
		if inj.TamperFlit(0, cycle, &noc.Flit{Packet: pkt}) {
			t.Errorf("fault fired outside the window at cycle %d", cycle)
		}
	}
	if !inj.TamperFlit(0, 150, &noc.Flit{Packet: pkt}) {
		t.Error("near-certain drop did not fire inside the window")
	}
}

func TestBindSitesGuards(t *testing.T) {
	inj := NewInjector(Spec{Seed: 1})
	inj.BindSites(4)
	for _, f := range []func(){
		func() { inj.BindSites(4) },
		func() { NewInjector(Spec{Seed: 1}).BindSites(0) },
		func() { NewInjector(Spec{BitFlip: 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Seed: 0xAB, BitFlip: 0.01}
	if got := s.String(); !strings.Contains(got, "seed=0xAB") || !strings.Contains(got, "window=[0,inf)") {
		t.Errorf("unexpected spec string %q", got)
	}
	s.End = 50
	if got := s.String(); !strings.Contains(got, "window=[0,50)") {
		t.Errorf("unexpected bounded-window string %q", got)
	}
}
