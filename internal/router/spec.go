package router

import (
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/buffer"
	"repro/internal/noc"
)

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
	base
	accurate bool

	// in is a value slab; its FIFO rings are carved from one shared slot slab.
	in []buffer.FIFO
	// newlyExposed[i] is the cycle during which input i's head packet is
	// barred from arbitration (Spec-Fast fairness rule).
	newlyExposed []int64
	arb          []arbiter.Arbiter
	lock         []int
	res          []int
	// resPkt[o] is the packet whose request earned the reservation; a
	// reservation is unusable by any other packet (Spec-Fast).
	resPkt []*noc.Packet

	// staged actions. popTail marks the inputs whose staged pop removes a
	// tail: recorded at traversal, because the flit belongs to the
	// downstream router once sent (see noc.Link).
	pops       []bool
	popTail    uint32
	lockNext   []int
	resNext    []int
	resPktNext []*noc.Packet

	// per-cycle scratch
	req  []uint32
	head []*noc.Flit
	// touched is the dirty-output mask of the current cycle: outputs whose
	// staged Next entries were written by Compute (requests present, or a
	// live reservation/lock to hold or lapse). Commit applies exactly these —
	// untouched outputs carry stale Next values that must not be copied.
	touched uint32
}

func newSpec(cfg Config) *specRouter {
	s := cfg.Slabs
	r := &s.specs.take(1, s.chunk)[0]
	r.accurate = cfg.Arch == SpecAccurate
	r.init(cfg)
	n := r.ports
	r.in = s.fifos.take(n, s.chunk)
	r.newlyExposed = s.int64s.take(n, s.chunk)
	r.arb = s.arbIfs.take(n, s.chunk)
	ints := s.ints.take(4*n, s.chunk)
	r.lock = ints[0*n : 1*n : 1*n]
	r.res = ints[1*n : 2*n : 2*n]
	r.lockNext = ints[2*n : 3*n : 3*n]
	r.resNext = ints[3*n:]
	pkts := s.pkts.take(2*n, s.chunk)
	r.resPkt = pkts[:n:n]
	r.resPktNext = pkts[n:]
	r.pops = s.bools.take(n, s.chunk)
	r.req = s.uint32s.take(n, s.chunk)
	r.head = s.flits.take(n, s.chunk)
	sl := buffer.SlotsFor(cfg.BufferDepth)
	slots := s.flits.take(n*sl, s.chunk)
	arb := arbMaker(&cfg, n)
	for p := range r.in {
		r.in[p].Init(cfg.BufferDepth, slots[p*sl:(p+1)*sl:(p+1)*sl])
		r.arb[p] = arb(p)
		r.lock[p] = -1
		r.res[p] = -1
		r.newlyExposed[p] = -1
	}
	r.initReceivers(r)
	return r
}

func (r *specRouter) receive(p noc.Port, f *noc.Flit, cycle int64) {
	if f.Encoded {
		panic("router: speculative router received an encoded flit")
	}
	if r.overflow(p, f, cycle, r.in[p].Free()) {
		return
	}
	f.OutPort = r.route(f.Packet.Dst)
	r.in[p].Push(f)
	r.counters().BufWrite++
	if pr := r.probe(); pr != nil {
		pr.BufWrite(cycle, r.node(), int(p), f.Packet.ID, f.Seq)
	}
}

// BufferedFlits returns the number of flits held in input FIFOs.
func (r *specRouter) BufferedFlits() int {
	n := 0
	for i := range r.in {
		n += r.in[i].Len()
	}
	return n
}

// PortStates implements Router: input FIFO occupancy plus the matching
// output's lock/reservation and link credits. A live reservation shows as
// the lock owner (both wedge the output on one input).
func (r *specRouter) PortStates(buf []PortState) []PortState {
	for p := 0; p < r.ports; p++ {
		ps := PortState{Buffered: r.in[p].Len(), OutMode: -1, OutLock: -1, OutCredits: -1}
		if r.outLink[p] != nil {
			ps.OutLock = r.lock[p]
			if ps.OutLock < 0 {
				ps.OutLock = r.res[p]
			}
			ps.OutCredits = r.outLink[p].Credits()
		}
		buf = append(buf, ps)
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
func (r *specRouter) Quiet() bool {
	for i := range r.in {
		if r.in[i].Len() != 0 {
			return false
		}
	}
	for _, res := range r.res {
		if res >= 0 {
			return false
		}
	}
	return true
}

// Flush implements Router: drains every input FIFO through drop and clears
// all locks, reservations, exposure markers, and staged actions.
func (r *specRouter) Flush(drop func(*noc.Flit)) {
	for p := range r.in {
		r.dropAll(&r.in[p], drop)
		r.lock[p] = -1
		r.res[p] = -1
		r.resPkt[p] = nil
		r.newlyExposed[p] = -1
		r.pops[p] = false
	}
	r.popTail = 0
	r.touched = 0
}

// allocatable reports whether input i's request may reach the allocator at
// the given cycle (Spec-Fast's newly-exposed restriction; always true for
// Spec-Accurate).
func (r *specRouter) allocatable(i int, cycle int64) bool {
	return r.accurate || r.newlyExposed[i] != cycle
}

// Compute performs speculative switch traversal and parallel allocation.
func (r *specRouter) Compute(cycle int64) {
	c := r.counters()

	req, head := r.req, r.head
	for i := range req {
		req[i] = 0
		head[i] = nil
	}
	for i := range r.in {
		f := r.in[i].Head()
		if f == nil {
			continue
		}
		head[i] = f
		if r.outLink[f.OutPort] == nil {
			panic("router: flit routed to unwired output")
		}
		req[f.OutPort] |= 1 << i
	}

	r.touched = 0
	for o := noc.Port(0); o < noc.Port(r.ports); o++ {
		link := r.outLink[o]
		if link == nil {
			continue
		}
		if req[o] == 0 && r.lock[o] < 0 && r.res[o] < 0 {
			// Nothing requesting and no held state: evaluating this output
			// would stage an exact hold, so the dirty walk skips it (and
			// Commit must not copy its stale Next entries).
			continue
		}
		r.touched |= 1 << uint(o)
		r.lockNext[o] = r.lock[o]
		r.resNext[o] = -1
		r.resPktNext[o] = nil
		if req[o] == 0 && r.lock[o] < 0 {
			// Nothing requesting; the pending reservation simply lapses
			// unused (it would be wasted only if requests it masked
			// existed, which they do not).
			continue
		}
		if !link.Ready(cycle) {
			// Backpressure (or injected stall): everything holds.
			r.resNext[o] = r.res[o]
			r.resPktNext[o] = r.resPkt[o]
			if pr := r.probe(); pr != nil {
				pr.CreditStall(cycle, r.node(), int(o))
			}
			continue
		}

		if owner := r.lock[o]; owner >= 0 {
			r.computeLocked(o, owner, req[o], head, cycle)
			continue
		}

		success := -1
		if res := r.res[o]; res >= 0 {
			// Reserved cycle: only the reservation holder may traverse, and
			// only if the packet that requested the reservation is still
			// there — a freshly exposed successor never requested it.
			if req[o]&(1<<res) != 0 && head[res].Packet == r.resPkt[o] {
				success = res
				r.traverse(o, res, head[res], cycle)
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
			allocReq := req[o] & (1 << res)
			if r.accurate {
				if success >= 0 {
					allocReq &^= 1 << success
				}
			} else if !r.allocatable(res, cycle) {
				allocReq = 0
			}
			r.allocate(o, allocReq, head)
			continue
		}

		// Unreserved: every requester traverses speculatively.
		switch bits.OnesCount32(req[o]) {
		case 1:
			i := bits.TrailingZeros32(req[o])
			success = i
			r.traverse(o, i, head[i], cycle)
		default:
			// Misspeculation: contention drives an indeterminate value on
			// the channel; the cycle and the channel energy are wasted.
			c.LinkInvalid++
			c.WastedCycles++
			c.Collisions++
			if pr := r.probe(); pr != nil {
				pr.Collision(cycle, r.node(), int(o), bits.OnesCount32(req[o]), 0)
			}
		}
		var allocReq uint32
		if r.accurate {
			allocReq = req[o]
			if success >= 0 {
				allocReq &^= 1 << success
			}
		} else {
			allocReq = req[o]
			for i := 0; i < r.ports; i++ {
				if allocReq&(1<<i) != 0 && !r.allocatable(i, cycle) {
					allocReq &^= 1 << i
				}
			}
		}
		r.allocate(o, allocReq, head)
	}
}

// computeLocked advances a multi-flit packet holding output o.
func (r *specRouter) computeLocked(o noc.Port, owner int, req uint32, head []*noc.Flit, cycle int64) {
	c := r.counters()
	if req&(1<<owner) != 0 {
		r.traverse(o, owner, head[owner], cycle)
	}
	if r.accurate {
		// Spec-Accurate overrides arbitration while a multi-flit packet is
		// under transmission.
		return
	}
	// Spec-Fast: only the owner's own (non-newly-exposed) request reaches
	// the allocator; at the tail cycle this manufactures the trailing
	// unnecessary reservation.
	allocReq := req & (1 << owner)
	if !r.allocatable(owner, cycle) {
		allocReq = 0
	}
	if allocReq != 0 {
		g, _ := r.arb[o].Grant(allocReq)
		c.Arb++
		r.resNext[o] = g
		r.resPktNext[o] = head[g].Packet
	}
}

// traverse stages a successful switch traversal of head f from input i to
// output o.
func (r *specRouter) traverse(o noc.Port, i int, f *noc.Flit, cycle int64) {
	c := r.counters()
	tail := f.Tail()
	if f.MultiFlit() {
		if f.Seq == 0 {
			r.lockNext[o] = i
		}
		if tail {
			r.lockNext[o] = -1
		}
	}
	if tail {
		r.popTail |= 1 << uint(i)
	}
	r.outLink[o].Send(f)
	r.pops[i] = true
	c.Xbar++
	c.LinkFlit++
	c.OutputActive++
	if pr := r.probe(); pr != nil {
		pr.Traverse(cycle, r.node(), int(o), f.Packet.ID, f.Seq)
	}
}

// allocate runs the parallel allocator over allocReq and stages next
// cycle's reservation. A reservation is suppressed when it would collide
// with a multi-flit lock engaging next cycle.
func (r *specRouter) allocate(o noc.Port, allocReq uint32, head []*noc.Flit) {
	if allocReq == 0 {
		return
	}
	if r.lockNext[o] >= 0 {
		// A multi-flit head traversed this cycle; the lock owns the output.
		return
	}
	g, _ := r.arb[o].Grant(allocReq)
	r.counters().Arb++
	r.resNext[o] = g
	r.resPktNext[o] = head[g].Packet
}

// Latch implements sim.Latcher: the flits staged on the input channels this
// cycle enter their ports' FIFOs.
func (r *specRouter) Latch(cycle int64) {
	for p, l := range r.inLink {
		if l == nil {
			continue
		}
		if f := l.Take(cycle); f != nil {
			r.receive(noc.Port(p), f, cycle)
		}
	}
}

// Commit pops traversed flits, returns credits, applies reservations and
// locks, tracks newly exposed packets, and takes in this cycle's arrivals.
func (r *specRouter) Commit(cycle int64) {
	c := r.counters()
	pr := r.probe()
	for i := range r.in {
		if r.pops[i] {
			r.pops[i] = false
			r.in[i].Pop()
			c.BufRead++
			if pr != nil {
				pr.BufRead(cycle, r.node(), i, 1)
			}
			r.returnCredits(noc.Port(i), 1, cycle)
			if r.popTail&(1<<uint(i)) != 0 && !r.in[i].Empty() {
				// The next packet was exposed by this departure; it may
				// not arbitrate during its first head cycle (Spec-Fast).
				r.newlyExposed[i] = cycle + 1
			}
		}
	}
	r.popTail = 0
	for m := r.touched; m != 0; m &= m - 1 {
		o := bits.TrailingZeros32(m)
		r.lock[o] = r.lockNext[o]
		r.res[o] = r.resNext[o]
		r.resPkt[o] = r.resPktNext[o]
	}
	if pr != nil {
		pr.Occupancy(r.node(), r.BufferedFlits())
	}
	r.Latch(cycle)
}
