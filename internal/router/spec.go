package router

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/noc"
)

// specPort is the speculative routers' own half of port p: output p's
// channel, allocator arbiter, wormhole lock and reservation with their
// staged successors, and input p's Spec-Fast exposure stamp.
type specPort struct {
	out *noc.Link
	// arb is output p's arbiter; it points at rr unless Config.NewArbiter
	// supplied another.
	arb arbiter.Arbiter
	rr  arbiter.RoundRobin
	// lock is the input holding output p through a multi-flit packet and res
	// the input holding next cycle's reservation, -1 if none; the Next
	// fields are their staged successors, valid for touched outputs.
	lock     int8
	res      int8
	lockNext int8
	resNext  int8
	// resID is the ID of the packet whose request earned the reservation; a
	// reservation is unusable by any other packet (Spec-Fast). It is matched
	// by ID, from the head flit's header: the request may have come from a
	// stale copy, whose slot can hold another packet by the next cycle.
	// resPkt is that flit's slot, which only the snapshot reads (see
	// codec.Encoder.PacketRef).
	resID      uint64
	resIDNext  uint64
	resPkt     *noc.Packet
	resPktNext *noc.Packet
	// newlyExposed is the cycle during which input p's head packet is barred
	// from arbitration (Spec-Fast fairness rule).
	newlyExposed int64
}

// specRouter implements both speculative single-cycle designs of §3.1.2
// (adapted from Mullins et al. to wormhole operation). Requests traverse
// the switch speculatively, without waiting for arbitration; an allocator
// runs in parallel and pre-schedules a reservation for the next cycle.
//
// The two variants differ only in the Switch-Next logic deciding which
// requests reach the allocator:
//
//   - Spec-Fast passes every request not masked by Switch-Fast — including
//     a request that is successfully traversing this very cycle — so it
//     creates "unnecessary switch reservations on the proceeding clock
//     cycle". A reservation answers one specific packet's request; when
//     that packet has already departed, the reserved cycle is wasted for
//     everyone, because the newly exposed packet behind it never requested
//     and "may not request arbitration" (§3.1.2's fairness rule; it is
//     also barred from the allocator on its first head cycle). Under
//     backlog this halves Spec-Fast's sustained efficiency, which is why
//     it "frequently saturates at less than half the bandwidth as the
//     other router architectures" (§5.1). Wormhole contiguity is
//     guaranteed by masking all other requests from arbitration during a
//     packet's transmission.
//
//   - Spec-Accurate's Switch-Next is "passed the same requests as Switch
//     Fast" — the same post-mask set — "and removes requests that
//     successfully undergo switch traversal in the current cycle". Its
//     reservations are therefore accurate (never issued to an input that
//     already succeeded), and arbitration is overridden while a multi-flit
//     packet holds an output; but like Spec-Fast, inputs masked during a
//     reserved cycle cannot pre-schedule, so a backlog of three or more
//     colliders alternates between collision and reserved cycles.
//
// When >= 2 inputs speculate toward one output the cycle is wasted and the
// channel is driven with an indeterminate, invalid value — the misspeculation
// energy overhead central to the paper's comparison (§3.2).
type specRouter struct {
	baseline
	port     []specPort
	accurate bool

	// locked and reserved have a bit per output holding a wormhole lock or a
	// live reservation, kept by Commit as it applies the staged state (and
	// rebuilt by RestoreState). Compute visits requested or held outputs
	// only; Quiet is busy == 0 && reserved == 0.
	locked   uint32
	reserved uint32
	// popTail marks the staged pops that remove a tail: recorded at
	// traversal, because the flit belongs to the downstream router once sent
	// (see noc.Link).
	popTail uint32
	// touched is the dirty-output mask of the current cycle: outputs whose
	// staged Next entries were written by Compute (requests present, or a
	// live reservation/lock to hold or lapse). Commit applies exactly these —
	// untouched outputs carry stale Next values that must not be copied.
	touched uint32
}

func newSpec(cfg *Config) *specRouter {
	s := cfg.Slabs
	r := &s.specs.take(1, s.chunk)[0]
	r.accurate = cfg.Arch == SpecAccurate
	r.init(cfg, r)
	r.port = s.spPorts.take(cfg.Ports, s.chunk)
	for i := range r.port {
		p := &r.port[i]
		p.arb = arbiterFor(cfg, &p.rr)
		p.lock, p.res, p.newlyExposed = -1, -1, -1
	}
	return r
}

// SetOutputLink registers the link driven by port p.
func (r *specRouter) SetOutputLink(p noc.Port, l *noc.Link) { r.wire(&r.port[p].out, p, l) }

// PortStates implements Router. A live reservation shows as the lock owner
// (both wedge the output on one input).
func (r *specRouter) PortStates(buf []PortState) []PortState {
	for i := range r.port {
		p := &r.port[i]
		held := p.lock
		if held < 0 {
			held = p.res
		}
		buf = append(buf, r.portState(i, p.out, held))
	}
	return buf
}

// Quiet implements sim.Quiescable. Empty input FIFOs are not sufficient
// here: a pending reservation lapses (is cleared) when the router evaluates
// a requestless cycle, so skipping a router that still holds one would
// preserve the reservation across the idle stretch and change behavior
// once traffic resumes. The router stays active until its reservations
// have lapsed. Locks held through upstream bubbles are safe to sleep on
// (held verbatim by empty cycles), and newlyExposed entries compare
// against absolute cycle numbers, so skipped cycles cannot alias them.
func (r *specRouter) Quiet() bool { return r.busy|r.reserved == 0 }

// heldMasks scans the port records for the outputs holding a lock and those
// holding a reservation.
func (r *specRouter) heldMasks() (locked, reserved uint32) {
	for o := range r.port {
		if r.port[o].lock >= 0 {
			locked |= 1 << uint(o)
		}
		if r.port[o].res >= 0 {
			reserved |= 1 << uint(o)
		}
	}
	return locked, reserved
}

// Audit implements Router. A reservation names a packet (a nonzero ID, the
// slot it came from) exactly while it is live; the slot need not still hold
// that packet, because the request may have come from a stale copy.
func (r *specRouter) Audit() error {
	for o := range r.port {
		if p := &r.port[o]; (p.res >= 0) != (p.resID != 0) {
			return fmt.Errorf("router %d output %d: reservation %d names packet %d", r.node, o, p.res, p.resID)
		}
	}
	busy, err := r.auditInputs()
	if err != nil {
		return err
	}
	locked, reserved := r.heldMasks()
	return r.auditMasks("busy/locked/reserved/pops", [4]uint32{r.busy, r.locked, r.reserved, r.pops | r.popTail},
		[4]uint32{busy, locked, reserved})
}

// Flush implements Router: drains every input FIFO through drop and clears
// all locks, reservations, exposure markers, and staged actions.
func (r *specRouter) Flush(drop func(*noc.Flit)) {
	r.flushInputs(drop)
	for i := range r.port {
		p := &r.port[i]
		p.lock, p.res, p.resID, p.resPkt, p.newlyExposed = -1, -1, 0, nil, -1
	}
	r.locked, r.reserved, r.popTail, r.touched = 0, 0, 0, 0
}

// switchNext is the Switch-Next logic: which of the requests Switch-Fast saw
// reach the allocator. Spec-Accurate removes the request that traversed this
// cycle (success, -1 if none); Spec-Fast passes it through and bars only
// newly exposed heads.
func (r *specRouter) switchNext(reqs uint32, success int, cycle int64) uint32 {
	if r.accurate {
		if success >= 0 {
			reqs &^= 1 << uint(success)
		}
		return reqs
	}
	for a := reqs; a != 0; a &= a - 1 {
		if i := bits.TrailingZeros32(a); r.port[i].newlyExposed == cycle {
			reqs &^= 1 << uint(i)
		}
	}
	return reqs
}

// Compute performs speculative switch traversal and parallel allocation.
func (r *specRouter) Compute(cycle int64) {
	c := r.counters
	port := r.port

	// An output with nothing requesting and no held state would stage an
	// exact hold, so the walk skips it (and Commit must not copy its stale
	// Next entries).
	var req [maxPorts]uint32
	r.touched = r.gather(&req) | r.locked | r.reserved
	for m := r.touched; m != 0; m &= m - 1 {
		o := bits.TrailingZeros32(m)
		p := &port[o]
		reqs := req[o]
		p.lockNext = p.lock
		p.resNext, p.resIDNext, p.resPktNext = -1, 0, nil
		if reqs == 0 && p.lock < 0 {
			// Nothing requesting; the pending reservation simply lapses
			// unused (it would be wasted only if requests it masked
			// existed, which they do not).
			continue
		}
		if !p.out.Ready(cycle) {
			// Backpressure (or injected stall): everything holds.
			p.resNext, p.resIDNext, p.resPktNext = p.res, p.resID, p.resPkt
			if pr := r.probe; pr != nil {
				pr.CreditStall(cycle, int(r.node), o)
			}
			continue
		}

		if owner := int(p.lock); owner >= 0 {
			r.computeLocked(o, owner, reqs, cycle)
			continue
		}

		success := -1
		if res := int(p.res); res >= 0 {
			// Reserved cycle: only the reservation holder may traverse, and
			// only if the packet that requested the reservation is still
			// there — a freshly exposed successor never requested it.
			if reqs&(1<<uint(res)) != 0 && r.in[res].head.id == p.resID {
				success = res
				r.traverse(o, res, cycle)
			} else {
				// The reservation was unnecessary — its requester already
				// departed or has nothing to send — and every other input
				// was masked: a wasted cycle (Spec-Fast's characteristic
				// inefficiency).
				c.WastedCycles++
			}
			// Switch-Next sees only the requests Switch-Fast saw — during a
			// reserved cycle that is the reservation holder alone. Spec-Fast
			// passes it through (manufacturing the unnecessary follow-on
			// reservation); Spec-Accurate removes the success, leaving
			// nothing to allocate, so the cycle after a reserved cycle is
			// speculative again.
			r.allocate(o, r.switchNext(reqs&(1<<uint(res)), success, cycle))
			continue
		}

		// Unreserved: every requester traverses speculatively.
		if reqs&(reqs-1) == 0 {
			success = bits.TrailingZeros32(reqs)
			r.traverse(o, success, cycle)
		} else {
			// Misspeculation: contention drives an indeterminate value on
			// the channel; the cycle and the channel energy are wasted.
			c.LinkInvalid++
			c.WastedCycles++
			c.Collisions++
			if pr := r.probe; pr != nil {
				pr.Collision(cycle, int(r.node), o, bits.OnesCount32(reqs), 0)
			}
		}
		r.allocate(o, r.switchNext(reqs, success, cycle))
	}
}

// computeLocked advances a multi-flit packet holding output o.
func (r *specRouter) computeLocked(o, owner int, req uint32, cycle int64) {
	if req&(1<<uint(owner)) != 0 {
		r.traverse(o, owner, cycle)
	}
	if r.accurate {
		// Spec-Accurate overrides arbitration while a multi-flit packet is
		// under transmission.
		return
	}
	// Spec-Fast: only the owner's own (non-newly-exposed) request reaches
	// the allocator; at the tail cycle this manufactures the trailing
	// unnecessary reservation.
	if a := r.switchNext(req&(1<<uint(owner)), -1, cycle); a != 0 {
		r.grant(o, a)
	}
}

// traverse stages a successful switch traversal of input i's head to
// output o.
func (r *specRouter) traverse(o, i int, cycle int64) {
	if r.in[i].head.hdr.Tail() {
		r.popTail |= 1 << uint(i)
	}
	p := &r.port[o]
	p.lockNext = r.send(i, o, p.out, p.lockNext, cycle)
}

// allocate runs the parallel allocator over allocReq and stages next
// cycle's reservation — unless a multi-flit head traversed this cycle: the
// lock it engages owns the output.
func (r *specRouter) allocate(o int, allocReq uint32) {
	if allocReq != 0 && r.port[o].lockNext < 0 {
		r.grant(o, allocReq)
	}
}

// grant lets output o's allocator pick among allocReq (non-empty) and stages
// the reservation for the winner's head packet.
func (r *specRouter) grant(o int, allocReq uint32) {
	p := &r.port[o]
	g, _ := p.arb.Grant(allocReq)
	r.counters.Arb++
	p.resNext, p.resIDNext, p.resPktNext = int8(g), r.in[g].head.id, r.in[g].fifo.Head().Packet
}

// Commit pops traversed flits, returns credits, applies reservations and
// locks, tracks newly exposed packets, and takes in this cycle's arrivals.
func (r *specRouter) Commit(cycle int64) {
	port := r.port
	for m := r.pops; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if r.pop(i, cycle) && r.popTail&(1<<uint(i)) != 0 {
			// The next packet was exposed by this departure; it may
			// not arbitrate during its first head cycle (Spec-Fast).
			port[i].newlyExposed = cycle + 1
		}
	}
	r.pops, r.popTail = 0, 0
	for m := r.touched; m != 0; m &= m - 1 {
		o := bits.TrailingZeros32(m)
		p := &port[o]
		p.lock, p.res, p.resID, p.resPkt = p.lockNext, p.resNext, p.resIDNext, p.resPktNext
		bit := uint32(1) << uint(o)
		r.locked &^= bit
		r.reserved &^= bit
		if p.lock >= 0 {
			r.locked |= bit
		}
		if p.res >= 0 {
			r.reserved |= bit
		}
	}
	if pr := r.probe; pr != nil {
		pr.Occupancy(int(r.node), r.BufferedFlits())
	}
	r.Latch(cycle)
}
