package core

import (
	"testing"

	"repro/internal/noc"
)

// mkSingle builds a single-flit packet and its flit with the given routed
// output port.
func mkSingle(id uint64, out noc.Port) *noc.Flit {
	p := noc.NewPacket(id, 0, 1, 1, 0, 0)
	f := noc.NewFlit(p, 0)
	f.OutPort = out
	return f
}

// routeTo returns a route-table row that sends every destination the tests
// use (core 0 or 1) out of port out.
func routeTo(out noc.Port) []noc.Port { return []noc.Port{out, out} }

// mkMulti builds an n-flit packet and returns its flits.
func mkMulti(id uint64, n int, out noc.Port) []*noc.Flit {
	p := noc.NewPacket(id, 0, 1, n, 0, 0)
	fl := make([]*noc.Flit, n)
	for i := range fl {
		fl[i] = noc.NewFlit(p, i)
		fl[i].OutPort = out
	}
	return fl
}

func offers(n int, m map[int]*noc.Flit) []*noc.Flit {
	o := make([]*noc.Flit, n)
	for i, f := range m {
		o[i] = f
	}
	return o
}

// TestFigure2TransmissionTiming drives one NoX output with the exact
// stimulus of the paper's Figure 2 / §2.6 walkthrough:
//
//	cycle 0: A on port 0, no contention  -> A passes unmodified, grant port 0,
//	         masks re-enable all (Recovery)
//	cycle 1: idle
//	cycle 2: B on port 1 and C on port 0 collide -> output = B^C encoded,
//	         grant port 1 (B), transition to Scheduled with only C enabled
//	cycle 3: C alone -> C passes unmodified; no arbitration requests ->
//	         back to Recovery with all inputs enabled
func TestFigure2TransmissionTiming(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)

	fA := mkSingle(1, noc.East)
	fB := mkSingle(2, noc.East)
	fC := mkSingle(3, noc.East)

	// Cycle 0: A on port 0.
	d := ctl.Decide(offers(n, map[int]*noc.Flit{0: fA}), true)
	if d.Out != fA || d.Out.Encoded {
		t.Fatalf("cycle 0: want A unmodified, got %v", d.Out)
	}
	if d.Serviced != 0 || d.Granted != 0 {
		t.Fatalf("cycle 0: serviced=%d granted=%d, want 0,0", d.Serviced, d.Granted)
	}
	ctl.Commit()
	if sw, ar := ctl.Masks(); sw != 0b11111 || ar != 0b11111 || ctl.Mode() != Recovery {
		t.Fatalf("cycle 0 next state: masks %b/%b mode %v, want all-enabled Recovery", sw, ar, ctl.Mode())
	}

	// Cycle 1: idle.
	d = ctl.Decide(offers(n, nil), true)
	if d.Out != nil || d.Serviced != -1 {
		t.Fatalf("cycle 1: unexpected activity %+v", d)
	}
	ctl.Commit()

	// Cycle 2: B (port 1) and C (port 0) collide.
	d = ctl.Decide(offers(n, map[int]*noc.Flit{1: fB, 0: fC}), true)
	if d.Out == nil || !d.Out.Encoded {
		t.Fatalf("cycle 2: want encoded output, got %v", d.Out)
	}
	if want := fB.Raw ^ fC.Raw; d.Out.Raw != want {
		t.Fatalf("cycle 2: encoded image %#x, want B^C %#x", d.Out.Raw, want)
	}
	if d.Granted != 1 || d.Serviced != 1 {
		t.Fatalf("cycle 2: grant/serviced = %d/%d, want port 1 (B)", d.Granted, d.Serviced)
	}
	if !d.Collided() || d.Invalid() {
		t.Fatalf("cycle 2: want productive collision, got %+v", d)
	}
	ctl.Commit()
	if ctl.Mode() != Scheduled {
		t.Fatalf("cycle 2 next: mode %v, want Scheduled", ctl.Mode())
	}
	if sw, ar := ctl.Masks(); sw != 0b00001 || ar != 0b11110 {
		t.Fatalf("cycle 2 next: masks %05b/%05b, want 00001/11110 (only C traverses; complement arbitrates)", sw, ar)
	}

	// Cycle 3: C alone, nothing else requests.
	d = ctl.Decide(offers(n, map[int]*noc.Flit{0: fC}), true)
	if d.Out != fC || d.Out.Encoded {
		t.Fatalf("cycle 3: want C unmodified, got %v", d.Out)
	}
	if d.Serviced != 0 {
		t.Fatalf("cycle 3: serviced=%d, want 0", d.Serviced)
	}
	if d.Granted != -1 {
		t.Fatalf("cycle 3: unexpected grant %d (no arbitration requests)", d.Granted)
	}
	ctl.Commit()
	if sw, ar := ctl.Masks(); sw != 0b11111 || ar != 0b11111 || ctl.Mode() != Recovery {
		t.Fatalf("cycle 3 next: masks %b/%b mode %v, want all-enabled Recovery", sw, ar, ctl.Mode())
	}
}

// TestFigure3ReceiveTiming drives a NoX input port with the packet stream
// produced in Figure 2 and checks the decode pipeline of Figure 3:
//
//	cycle 0: A (uncoded) read, presented immediately
//	cycle 2: B^C (coded) read, saved to decode register, no request
//	cycle 3: C read and XORed with the register, presenting B
//	cycle 4: C presented from the buffer
func TestFigure3ReceiveTiming(t *testing.T) {
	ip := NewInputPort(4, routeTo(noc.East))

	fA := mkSingle(1, noc.East)
	fB := mkSingle(2, noc.East)
	fC := mkSingle(3, noc.East)
	enc := noc.Encode([]*noc.Flit{fB, fC})

	// Cycle 0: A buffered and presented.
	ip.Receive(fA)
	f, dec, ok := ip.Offer()
	if !ok || dec || f.Packet.ID != 1 {
		t.Fatalf("cycle 0: want raw A, got %v (decoded=%v ok=%v)", f, dec, ok)
	}
	ip.Service()
	if ev := ip.Commit(); ev.FreedSlots != 1 || ev.Decoded {
		t.Fatalf("cycle 0: events %+v", ev)
	}

	// Cycle 1: empty.
	if _, _, ok := ip.Offer(); ok {
		t.Fatal("cycle 1: unexpected offer")
	}
	ip.Commit()

	// Cycle 2: encoded B^C arrives; no switch request; latched at the edge.
	ip.Receive(enc)
	if _, _, ok := ip.Offer(); ok {
		t.Fatal("cycle 2: encoded head must not generate a switch request")
	}
	if ev := ip.Commit(); !ev.Latched || ev.FreedSlots != 1 {
		t.Fatalf("cycle 2: want latch with freed slot, got %+v", ev)
	}
	if !ip.RegisterBusy() {
		t.Fatal("cycle 2: register should hold B^C")
	}

	// Cycle 3: C arrives; register XOR C presents B.
	ip.Receive(fC)
	f, dec, ok = ip.Offer()
	if !ok || !dec {
		t.Fatalf("cycle 3: want decoded offer, got ok=%v dec=%v", ok, dec)
	}
	if f.Packet.ID != 2 || f.Raw != fB.Raw {
		t.Fatalf("cycle 3: decoded %v, want B", f)
	}
	ip.Service()
	ev := ip.Commit()
	if !ev.Decoded || ev.FreedSlots != 0 {
		t.Fatalf("cycle 3: events %+v (C must stay buffered)", ev)
	}
	if ip.RegisterBusy() {
		t.Fatal("cycle 3: register should be cleared after final decode")
	}

	// Cycle 4: C presented raw from the buffer.
	f, dec, ok = ip.Offer()
	if !ok || dec || f.Packet.ID != 3 {
		t.Fatalf("cycle 4: want raw C, got %v (decoded=%v)", f, dec)
	}
	ip.Service()
	if ev := ip.Commit(); ev.FreedSlots != 1 {
		t.Fatalf("cycle 4: events %+v", ev)
	}
	if ip.Buffered() != 0 || ip.RegisterBusy() {
		t.Fatal("cycle 4: port should be empty")
	}
}

// TestThreeWayChain checks the §2.2 property directly on the control and
// decode logic: A, B, C collide; the chain A^B^C, B^C, C decodes to A, B, C
// in grant order at the receiver.
func TestThreeWayChain(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)
	ip := NewInputPort(8, routeTo(noc.Local))

	fs := []*noc.Flit{mkSingle(10, noc.East), mkSingle(11, noc.East), mkSingle(12, noc.East)}
	live := map[int]*noc.Flit{0: fs[0], 1: fs[1], 2: fs[2]}

	var grantOrder []uint64
	var wire []*noc.Flit
	for cycle := 0; cycle < 10 && len(live) > 0; cycle++ {
		d := ctl.Decide(offers(n, live), true)
		if d.Out != nil {
			wire = append(wire, d.Out)
		}
		if d.Serviced >= 0 {
			grantOrder = append(grantOrder, live[d.Serviced].Packet.ID)
			delete(live, d.Serviced)
		}
		ctl.Commit()
	}
	if len(wire) != 3 {
		t.Fatalf("chain emitted %d wire flits, want 3", len(wire))
	}
	if !wire[0].Encoded || !wire[1].Encoded || wire[2].Encoded {
		t.Fatalf("wire encodings wrong: %v %v %v", wire[0], wire[1], wire[2])
	}

	// Replay the wire into a receiving input port and collect decode order.
	var recovered []uint64
	for _, w := range wire {
		ip.Receive(w)
		// Drain as the hardware would: one presentation per cycle.
		if f, _, ok := ip.Offer(); ok {
			ip.Service()
			recovered = append(recovered, f.Packet.ID)
		}
		ip.Commit()
	}
	for i := 0; i < 4; i++ { // a few extra cycles to flush
		if f, _, ok := ip.Offer(); ok {
			ip.Service()
			recovered = append(recovered, f.Packet.ID)
		}
		ip.Commit()
	}
	if len(recovered) != 3 {
		t.Fatalf("recovered %d packets, want 3", len(recovered))
	}
	for i := range recovered {
		if recovered[i] != grantOrder[i] {
			t.Fatalf("decode order %v != grant order %v (§2.2 ordering property)", recovered, grantOrder)
		}
	}
}

// TestMultiFlitAbort verifies §2.7: a collision involving a multi-flit
// packet aborts (invalid drive, nobody serviced) and transitions to
// Scheduled mode; the winner then streams contiguously under the lock with
// no other arbitration winners until the tail passes.
func TestMultiFlitAbort(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)

	data := mkMulti(20, 3, noc.East)
	ctrl := mkSingle(21, noc.East)

	// Cycle 0: multi-flit head collides with a single-flit packet.
	d := ctl.Decide(offers(n, map[int]*noc.Flit{0: data[0], 1: ctrl}), true)
	if !d.Invalid() || d.Out != nil || d.Serviced != -1 {
		t.Fatalf("abort cycle: want invalid drive and no service, got %+v", d)
	}
	winner := d.Granted
	if winner != 0 && winner != 1 {
		t.Fatalf("abort grant %d outside collision set", winner)
	}
	ctl.Commit()
	if ctl.Mode() != Scheduled {
		t.Fatalf("after abort: mode %v, want Scheduled", ctl.Mode())
	}
	if sw, _ := ctl.Masks(); sw != 1<<winner {
		t.Fatalf("after abort: switch mask %05b, want one-hot winner %d", sw, winner)
	}

	// The round-robin arbiter starts at input 0, so the data packet wins.
	if winner != 0 {
		t.Fatalf("expected round-robin to grant input 0, got %d", winner)
	}

	// Cycles 1..3: the data packet streams; no arbitration winners are
	// produced until the tail cycle, where the parallel arbiter resumes
	// and pre-schedules the waiting loser.
	for seq := 0; seq < 3; seq++ {
		d = ctl.Decide(offers(n, map[int]*noc.Flit{0: data[seq], 1: ctrl}), true)
		if d.Out != data[seq] || d.Serviced != 0 {
			t.Fatalf("stream cycle %d: got %+v", seq, d)
		}
		if seq < 2 && seq > 0 && d.Granted != -1 {
			t.Fatalf("stream cycle %d: arbitration winner %d during multi-flit transmission", seq, d.Granted)
		}
		if seq == 2 && d.Granted != 1 {
			t.Fatalf("tail cycle: granted %d, want the waiting loser 1", d.Granted)
		}
		ctl.Commit()
		if seq < 2 && ctl.Locked() != 0 {
			t.Fatalf("stream cycle %d: lock owner %d, want 0", seq, ctl.Locked())
		}
	}
	if ctl.Locked() != -1 {
		t.Fatal("lock not released after tail")
	}
	if ctl.Mode() != Scheduled {
		t.Fatal("tail handoff should stay in Scheduled mode")
	}

	// Next cycle the pre-scheduled loser goes immediately — no collision
	// storm after a multi-flit transmission.
	d = ctl.Decide(offers(n, map[int]*noc.Flit{1: ctrl}), true)
	if d.Out != ctrl || d.Serviced != 1 {
		t.Fatalf("post-tail cycle: got %+v", d)
	}
}

// TestScheduledModeSteadyState verifies that two continuously streaming
// inputs settle into collision-free alternation (§2.6: the NoX logic
// performs like a pre-scheduled speculative router once requests are
// predictable).
func TestScheduledModeSteadyState(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)

	var id uint64 = 100
	next := func() *noc.Flit { id++; return mkSingle(id, noc.East) }
	live := map[int]*noc.Flit{0: next(), 1: next()}

	collisions := 0
	delivered := 0
	for cycle := 0; cycle < 40; cycle++ {
		d := ctl.Decide(offers(n, live), true)
		if d.Collided() {
			collisions++
		}
		if d.Serviced >= 0 {
			delivered++
			live[d.Serviced] = next() // input immediately offers a new packet
		}
		ctl.Commit()
	}
	if collisions != 1 {
		t.Errorf("collisions = %d, want exactly the initial one", collisions)
	}
	if delivered != 40 {
		t.Errorf("delivered %d in 40 cycles, want full utilization", delivered)
	}
}

// TestCreditStallPreservesChain verifies that exhausting credits mid-chain
// freezes the masks so the encoded sequence stays contiguous and decodable.
func TestCreditStallPreservesChain(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)
	ip := NewInputPort(8, routeTo(noc.Local))

	live := map[int]*noc.Flit{0: mkSingle(31, noc.East), 1: mkSingle(32, noc.East), 2: mkSingle(33, noc.East)}
	credits := []bool{true, false, false, true, true, true, true, true}

	var wire []*noc.Flit
	for cycle := 0; cycle < len(credits) && len(live) > 0; cycle++ {
		d := ctl.Decide(offers(n, live), credits[cycle])
		if !credits[cycle] {
			if !d.Stalled() || d.Out != nil || d.Serviced >= 0 {
				t.Fatalf("cycle %d: activity during stall: %+v", cycle, d)
			}
		}
		if d.Out != nil {
			wire = append(wire, d.Out)
		}
		if d.Serviced >= 0 {
			delete(live, d.Serviced)
		}
		ctl.Commit()
	}
	if len(live) != 0 {
		t.Fatalf("chain did not complete: %d left", len(live))
	}
	// The received sequence must decode to all three packets.
	got := map[uint64]bool{}
	for _, w := range wire {
		ip.Receive(w)
	}
	for i := 0; i < 10; i++ {
		if f, _, ok := ip.Offer(); ok {
			ip.Service()
			got[f.Packet.ID] = true
		}
		ip.Commit()
	}
	for _, want := range []uint64{31, 32, 33} {
		if !got[want] {
			t.Errorf("packet %d not recovered after stall; wire=%v", want, wire)
		}
	}
}
