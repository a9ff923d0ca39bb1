package core

import (
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

// TestMaskInvariants drives one output control with random request/credit
// stimuli and checks the §2.6 structural invariants after every cycle:
// in Recovery the switch and arbitration masks are identical; in Scheduled
// the switch mask is one-hot and the arbitration mask is its complement.
func TestMaskInvariants(t *testing.T) {
	const n = 5
	all := uint32(1<<n) - 1
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		ctl := NewOutputControl(n, nil)
		// Persistent single-flit requesters; each serviced offer is
		// replaced with a fresh packet with probability 1/2.
		var id uint64 = 1
		live := map[int]*noc.Flit{}
		for cycle := 0; cycle < 300; cycle++ {
			for i := 0; i < n; i++ {
				if live[i] == nil && rng.Bernoulli(0.3) {
					id++
					live[i] = mkSingle(id, noc.East)
				}
			}
			d := ctl.Decide(offers(n, live), rng.Bernoulli(0.85))
			if d.Serviced >= 0 {
				delete(live, d.Serviced)
			}
			ctl.Commit()
			sw, ar := ctl.Masks()
			switch ctl.Mode() {
			case Recovery:
				if sw != ar {
					return false
				}
			case Scheduled:
				if bits.OnesCount32(sw) != 1 || ar != all&^sw {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedChainSoak wires one OutputControl to a receiving InputPort
// through a randomly stalling link and checks, under random single-flit
// request stimuli, that every serviced packet is recovered downstream
// exactly once and in service order — the end-to-end coding contract.
func TestRandomizedChainSoak(t *testing.T) {
	const n = 5
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		ctl := NewOutputControl(n, nil)
		ip := NewInputPort(64, routeTo(noc.Local))

		var id uint64
		live := map[int]*noc.Flit{}
		var serviced, recovered []uint64

		for cycle := 0; cycle < 600; cycle++ {
			for i := 0; i < n; i++ {
				if live[i] == nil && rng.Bernoulli(0.4) {
					id++
					live[i] = mkSingle(seed<<20|id, noc.East)
				}
			}
			d := ctl.Decide(offers(n, live), ip.Free() > 0)
			if d.Out != nil {
				ip.Receive(d.Out)
			}
			if d.Serviced >= 0 {
				serviced = append(serviced, live[d.Serviced].Packet.ID)
				delete(live, d.Serviced)
			}
			ctl.Commit()

			// Downstream drains with random backpressure.
			if fl, _, ok := ip.Offer(); ok && rng.Bernoulli(0.8) {
				ip.Service()
				recovered = append(recovered, fl.Packet.ID)
			}
			ip.Commit()
		}
		// Let any in-progress chain complete (an encoded prefix is only
		// decodable once the rest of the chain arrives), then flush the
		// receiver.
		for i := 0; i < 200 && len(live) > 0; i++ {
			d := ctl.Decide(offers(n, live), ip.Free() > 0)
			if d.Out != nil {
				ip.Receive(d.Out)
			}
			if d.Serviced >= 0 {
				serviced = append(serviced, live[d.Serviced].Packet.ID)
				delete(live, d.Serviced)
			}
			ctl.Commit()
			if fl, _, ok := ip.Offer(); ok {
				ip.Service()
				recovered = append(recovered, fl.Packet.ID)
			}
			ip.Commit()
		}
		for i := 0; i < 200; i++ {
			if fl, _, ok := ip.Offer(); ok {
				ip.Service()
				recovered = append(recovered, fl.Packet.ID)
			}
			ip.Commit()
		}
		if len(recovered) != len(serviced) {
			return false
		}
		for i := range serviced {
			if serviced[i] != recovered[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryChainNoNewEntrants verifies a chain in progress excludes new
// requesters from both switch and arbitration until it narrows (§2.6).
func TestRecoveryChainNoNewEntrants(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)
	live := map[int]*noc.Flit{0: mkSingle(1, noc.East), 1: mkSingle(2, noc.East), 2: mkSingle(3, noc.East)}

	d := ctl.Decide(offers(n, live), true) // 3-way collision
	if !d.Collided() {
		t.Fatal("expected collision")
	}
	delete(live, d.Serviced)
	ctl.Commit()

	// A newcomer appears mid-chain; it must be inhibited everywhere.
	live[4] = mkSingle(9, noc.East)
	d = ctl.Decide(offers(n, live), true)
	if d.Serviced == 4 || d.Granted == 4 {
		t.Fatalf("newcomer admitted mid-chain: %+v", d)
	}
	if d.Out == nil || !d.Out.Encoded || len(d.Out.Parts) != 2 {
		t.Fatalf("chain should narrow to the two losers, got %v", d.Out)
	}
	delete(live, d.Serviced)
	ctl.Commit()

	// Scheduled now: the final loser traverses; the newcomer arbitrates.
	d = ctl.Decide(offers(n, live), true)
	if d.Out == nil || d.Out.Encoded {
		t.Fatalf("final chain flit should be raw, got %v", d.Out)
	}
	if d.Granted != 4 {
		t.Fatalf("newcomer should win the Scheduled-mode grant, got %d", d.Granted)
	}
}

// TestInhibitedRequestsOnly drives DecideFor where requests exist but the
// switch mask enables none of them. The protocol reaches that case only when
// a collision loser or the pre-scheduled input stops presenting (a condemned
// decode register), so each subtest presents a newcomer alone. Recovery
// holds the narrowed masks and grants nothing; Scheduled arbitrates and
// pre-schedules the newcomer.
func TestInhibitedRequestsOnly(t *testing.T) {
	const n = 5
	all := uint32(1<<n) - 1
	decide := func(ctl *OutputControl, live map[int]*noc.Flit) Decision {
		fs := offers(n, live)
		var hdr [n]noc.Header
		var req uint32
		for i, f := range fs {
			if f != nil {
				req |= 1 << i
				hdr[i] = f.Header().Route(f.OutPort)
			}
		}
		return ctl.DecideFor(fs, hdr[:], req, true)
	}
	newcomer := map[int]*noc.Flit{4: mkSingle(9, noc.East)}

	t.Run("Recovery", func(t *testing.T) {
		ctl := NewOutputControl(n, nil)
		d := decide(ctl, map[int]*noc.Flit{0: mkSingle(1, noc.East), 1: mkSingle(2, noc.East), 2: mkSingle(3, noc.East)})
		ctl.Commit()
		losers := uint32(0b111) &^ (1 << d.Serviced)
		if sw, ar := ctl.Masks(); !d.Collided() || ctl.Mode() != Recovery || sw != losers || ar != losers {
			t.Fatalf("three-way collision: %+v, mode %v, masks %05b/%05b, want Recovery on the losers %05b", d, ctl.Mode(), sw, ar, losers)
		}
		d = decide(ctl, newcomer)
		if d.Out != nil || d.Serviced != -1 || d.Granted != -1 || d.Arbitrated() || d.Collided() || d.Stalled() {
			t.Fatalf("inhibited newcomer in Recovery: %+v, want no drive, service or grant", d)
		}
		ctl.Commit()
		if sw, ar := ctl.Masks(); ctl.Mode() != Recovery || sw != losers || ar != losers || ctl.Locked() != -1 {
			t.Fatalf("staged mode %v, masks %05b/%05b, lock %d, want the chain held: Recovery, %05b/%05b, -1", ctl.Mode(), sw, ar, ctl.Locked(), losers, losers)
		}
	})

	t.Run("Scheduled", func(t *testing.T) {
		ctl := NewOutputControl(n, nil)
		d := decide(ctl, map[int]*noc.Flit{0: mkSingle(1, noc.East), 1: mkSingle(2, noc.East)})
		ctl.Commit()
		loser := uint32(0b11) &^ (1 << d.Serviced)
		if sw, ar := ctl.Masks(); ctl.Mode() != Scheduled || sw != loser || ar != all&^loser {
			t.Fatalf("two-way collision: mode %v, masks %05b/%05b, want the loser %05b pre-scheduled", ctl.Mode(), sw, ar, loser)
		}
		d = decide(ctl, newcomer)
		if d.Out != nil || d.Serviced != -1 || d.Granted != 4 || !d.Arbitrated() || d.Collided() {
			t.Fatalf("inhibited newcomer in Scheduled: %+v, want no drive or service and a grant to input 4", d)
		}
		ctl.Commit()
		if sw, ar := ctl.Masks(); ctl.Mode() != Scheduled || sw != 1<<4 || ar != all&^(1<<4) || ctl.Locked() != -1 {
			t.Fatalf("staged mode %v, masks %05b/%05b, lock %d, want input 4 pre-scheduled: Scheduled, %05b/%05b, -1", ctl.Mode(), sw, ar, ctl.Locked(), uint32(1<<4), all&^(1<<4))
		}
	})
}

// TestInputPortBubbleMidChain checks the receiver tolerates gaps between
// chain flits (upstream credit stalls): the decode register waits for the
// next contiguous flit.
func TestInputPortBubbleMidChain(t *testing.T) {
	ip := NewInputPort(8, routeTo(noc.Local))
	a, b := mkSingle(1, noc.East), mkSingle(2, noc.East)
	enc := noc.Encode([]*noc.Flit{a, b})

	ip.Receive(enc)
	ip.Commit() // latch
	if !ip.RegisterBusy() {
		t.Fatal("register should be busy")
	}
	// Several idle cycles with no arrival: no offer, no state change.
	for i := 0; i < 5; i++ {
		if _, _, ok := ip.Offer(); ok {
			t.Fatal("offer during mid-chain bubble")
		}
		ip.Commit()
	}
	ip.Receive(b)
	f, dec, ok := ip.Offer()
	if !ok || !dec || f.Packet.ID != 1 {
		t.Fatalf("decode after bubble failed: %v %v %v", f, dec, ok)
	}
}

// TestUnownedConstituentPoisonsLenientPort: a register whose constituent
// lost its owning packet (scrubbed after an upstream drop) is a decode
// protocol violation like any other — a lenient port stages poison,
// discards the register at the next commit and reports the error; a strict
// port keeps its panic. It used to be a nil dereference inside noc.Decode.
func TestUnownedConstituentPoisonsLenientPort(t *testing.T) {
	latchScrubbed := func(lenient bool) *InputPort {
		ip := NewInputPort(8, routeTo(noc.Local))
		ip.SetLenient(lenient)
		a, b := mkSingle(1, noc.East), mkSingle(2, noc.East)
		ip.Receive(noc.Encode([]*noc.Flit{a, b}))
		ip.Commit() // latch
		a.Packet = nil
		ip.Receive(b)
		return ip
	}

	ip := latchScrubbed(true)
	if _, _, ok := ip.Offer(); ok {
		t.Fatal("lenient port presented a decode of an unowned constituent")
	}
	ev := ip.Commit()
	if ev.DecodeErr == nil {
		t.Fatal("commit did not report the decode violation")
	}
	if ip.RegisterBusy() {
		t.Error("condemned register survived the commit")
	}
	if f, dec, ok := ip.Offer(); !ok || dec || f.Packet.ID != 2 {
		t.Errorf("buffered head not presented raw after the discard: %v %v %v", f, dec, ok)
	}

	strict := latchScrubbed(false)
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: decode protocol violated") {
			t.Errorf("strict port: recovered %q, want the decode protocol panic", msg)
		}
	}()
	strict.Offer()
}

// TestOfferStability verifies an unserviced offer is identical across
// cycles (output logic depends on request stability).
func TestOfferStability(t *testing.T) {
	ip := NewInputPort(8, routeTo(noc.West))
	a, b := mkSingle(1, noc.East), mkSingle(2, noc.East)
	ip.Receive(noc.Encode([]*noc.Flit{a, b}))
	ip.Commit() // latch
	ip.Receive(b)

	f1, _, ok1 := ip.Offer()
	ip.Commit() // not serviced
	f2, _, ok2 := ip.Offer()
	if !ok1 || !ok2 {
		t.Fatal("offers missing")
	}
	if f1.Packet != f2.Packet || f1.Raw != f2.Raw {
		t.Error("unserviced offer changed across cycles")
	}
	if f1.OutPort != noc.West {
		t.Error("decoded offer did not take the local route")
	}
}

// TestServiceWithoutOfferPanics guards the port's usage contract.
func TestServiceWithoutOfferPanics(t *testing.T) {
	ip := NewInputPort(4, routeTo(noc.Local))
	defer func() {
		if recover() == nil {
			t.Error("Service without offer did not panic")
		}
	}()
	ip.Service()
}

// TestDecideWidthMismatchPanics guards the control's usage contract.
func TestDecideWidthMismatchPanics(t *testing.T) {
	ctl := NewOutputControl(5, nil)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch did not panic")
		}
	}()
	ctl.Decide(make([]*noc.Flit, 3), true)
}

// TestScheduledStallHoldsSchedule verifies a credit stall in Scheduled
// mode freezes the pre-scheduled input rather than losing it.
func TestScheduledStallHoldsSchedule(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)
	a, b := mkSingle(1, noc.East), mkSingle(2, noc.East)
	live := map[int]*noc.Flit{0: a, 1: b}

	// Collision: winner serviced, loser becomes the Scheduled traverser.
	d := ctl.Decide(offers(n, live), true)
	delete(live, d.Serviced)
	ctl.Commit()
	if ctl.Mode() != Scheduled {
		t.Fatal("want Scheduled after 2-way collision")
	}

	// Stall for three cycles: nothing moves, schedule intact.
	for i := 0; i < 3; i++ {
		d = ctl.Decide(offers(n, live), false)
		if !d.Stalled() || d.Out != nil {
			t.Fatalf("stall cycle %d leaked activity: %+v", i, d)
		}
		ctl.Commit()
		if ctl.Mode() != Scheduled {
			t.Fatal("stall dropped the schedule")
		}
	}

	// Credits return: the scheduled loser goes immediately.
	d = ctl.Decide(offers(n, live), true)
	if d.Out == nil || d.Out.Encoded || d.Serviced < 0 {
		t.Fatalf("post-stall cycle wrong: %+v", d)
	}
}

// TestIdleResetsToRecovery verifies an idle cycle re-arms Recovery with
// everything enabled, from either mode.
func TestIdleResetsToRecovery(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)
	live := map[int]*noc.Flit{0: mkSingle(1, noc.East), 1: mkSingle(2, noc.East)}
	d := ctl.Decide(offers(n, live), true)
	delete(live, d.Serviced)
	ctl.Commit() // Scheduled now
	d = ctl.Decide(offers(n, live), true)
	delete(live, d.Serviced)
	ctl.Commit()

	ctl.Decide(offers(n, nil), true) // idle
	ctl.Commit()
	sw, ar := ctl.Masks()
	if ctl.Mode() != Recovery || sw != 0b11111 || ar != 0b11111 {
		t.Errorf("idle did not re-arm Recovery: mode=%v masks=%05b/%05b", ctl.Mode(), sw, ar)
	}
}

// TestWideCollision exercises the maximum 5-way superposition and its full
// chain, including the Scheduled transition at the end.
func TestWideCollision(t *testing.T) {
	const n = 5
	ctl := NewOutputControl(n, nil)
	live := map[int]*noc.Flit{}
	var want uint64
	for i := 0; i < n; i++ {
		f := mkSingle(uint64(100+i), noc.East)
		live[i] = f
		want ^= f.Raw
	}
	d := ctl.Decide(offers(n, live), true)
	if d.Out == nil || !d.Out.Encoded || len(d.Out.Parts) != 5 {
		t.Fatalf("5-way superposition wrong: %v", d.Out)
	}
	if d.Out.Raw != want {
		t.Fatalf("5-way XOR image wrong")
	}
	served := 0
	for cycle := 0; cycle < 10 && len(live) > 0; cycle++ {
		if d.Serviced >= 0 {
			delete(live, d.Serviced)
			served++
		}
		ctl.Commit()
		if len(live) == 0 {
			break
		}
		d = ctl.Decide(offers(n, live), true)
	}
	if served != 5 {
		t.Fatalf("chain served %d/5", served)
	}
}
