package router

import (
	"math/bits"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/routing"
)

// noxRouter composes internal/core's input ports and output controls into
// the full NoX router of §2: an XOR-based switch with precomputed input
// gating, output arbiters run in parallel with traversal, and input-port
// decode circuitry. Under contention it transmits encoded superpositions
// productively instead of wasting cycles, freeing one winner's buffer per
// cycle; the downstream ports (and the ejection interface) decode by XORing
// contiguously received flits.
type noxRouter struct {
	base
	// in and ctl are value slabs: one allocation each for the router's whole
	// port complement, with FIFO rings carved from a shared slot slab.
	in  []core.InputPort
	ctl []core.OutputControl

	// offers is per-cycle scratch, flattened [output*ports + input]. Rows are
	// zeroed by the output loop right after use, so only rows actually
	// written this cycle are ever touched (part of the dirty-port walk).
	offers []*noc.Flit
	// decoded is per-cycle scratch: decoded[i] reports input i's current
	// offer came through the decode path (probe instrumentation; written
	// only when a probe is attached).
	decoded []bool

	// Port-granular dirty masks (event-horizon kernel). inBusy has a bit per
	// input holding undrained work (set on receive, cleared at Commit once
	// FIFO and decode register are empty); outBusy a bit per wired output
	// whose control logic is away from its rest state (recomputed at Commit
	// from ctl.Idle). Compute offers only dirty inputs and decides only
	// outputs that are offered to or busy — OutputControl.Idle documents that
	// skipping an idle output's evaluation is unobservable. decided records
	// the outputs Decide ran for this cycle, so Commit commits exactly those
	// (OutputControl.Commit requires a same-cycle Decide). Masks start and
	// restore conservatively full; the first evaluation trims them.
	inBusy  uint32
	outBusy uint32
	decided uint32
}

// allPorts returns the n-bit all-ones dirty mask.
func allPorts(n int) uint32 { return uint32(uint64(1)<<uint(n) - 1) }

func newNoX(cfg Config) *noxRouter {
	s := cfg.Slabs
	r := &s.noxes.take(1, s.chunk)[0]
	r.init(cfg)
	n := r.ports
	r.in = s.inPorts.take(n, s.chunk)
	r.ctl = s.ctls.take(n, s.chunk)
	r.offers = s.flits.take(n*n, s.chunk)
	r.decoded = s.bools.take(n, s.chunk)
	sl := buffer.SlotsFor(cfg.BufferDepth)
	slots := s.flits.take(n*sl, s.chunk)
	arb := arbMaker(&cfg, n)
	colliders := s.flits.take(n*n, s.chunk)
	for p := 0; p < n; p++ {
		r.in[p].Init(cfg.BufferDepth, slots[p*sl:(p+1)*sl:(p+1)*sl], r.row, cfg.Arena)
		r.ctl[p].Init(n, arb(p), cfg.Arena, colliders[p*n:p*n:(p+1)*n])
		if cfg.Check != nil {
			// Armed: decode corruption and orphan bodies become reported
			// violations instead of panics (injected faults make both
			// legitimately reachable).
			r.in[p].SetLenient(true)
			r.ctl[p].SetLenient(true)
		}
	}
	r.inBusy, r.outBusy = allPorts(n), allPorts(n)
	r.initReceivers(r)
	return r
}

func (r *noxRouter) receive(p noc.Port, f *noc.Flit, cycle int64) {
	if r.overflow(p, f, cycle, r.in[p].Free()) {
		return
	}
	r.inBusy |= 1 << uint(p)
	r.in[p].Receive(f)
	r.counters().BufWrite++
	if pr := r.probe(); pr != nil {
		arg, seq := flitTraceID(f)
		pr.BufWrite(cycle, r.node(), int(p), arg, seq)
	}
}

// BufferedFlits returns the flits held in input FIFOs and decode registers.
func (r *noxRouter) BufferedFlits() int {
	n := 0
	for i := range r.in {
		ip := &r.in[i]
		n += ip.Buffered()
		if ip.RegisterBusy() {
			n++
		}
	}
	return n
}

// PortStates implements Router: input FIFO/register occupancy plus the
// matching output's mode, wormhole lock, and link credits.
func (r *noxRouter) PortStates(buf []PortState) []PortState {
	for p := 0; p < r.ports; p++ {
		ps := PortState{
			Buffered: r.in[p].Buffered(),
			Register: r.in[p].RegisterBusy(),
			OutMode:  -1, OutLock: -1, OutCredits: -1,
		}
		if r.outLink[p] != nil {
			ps.OutMode = int(r.ctl[p].Mode())
			ps.OutLock = r.ctl[p].Locked()
			ps.OutCredits = r.outLink[p].Credits()
		}
		buf = append(buf, ps)
	}
	return buf
}

// Quiet implements sim.Quiescable: every input port fully drained (FIFO and
// decode register) and every wired output's control logic back in its rest
// state. The rest-state requirement matters because an empty evaluation
// re-arms narrowed masks and Scheduled-mode state; the router must perform
// that re-arm cycle before sleeping, or a post-idle arrival would face
// stale masks.
func (r *noxRouter) Quiet() bool {
	for i := range r.in {
		if ip := &r.in[i]; ip.Buffered() != 0 || ip.RegisterBusy() {
			return false
		}
	}
	for o := range r.ctl {
		if r.outLink[o] != nil && !r.ctl[o].Idle() {
			return false
		}
	}
	return true
}

// Flush implements Router: tears down every input port (FIFO, decode
// register, poison) through drop and forces every output's control logic
// back to its rest state. Constituents of encoded flits leak by design
// (see core.InputPort.Flush); the caller marks the run leaky.
func (r *noxRouter) Flush(drop func(*noc.Flit)) {
	n := r.ports
	for p := 0; p < n; p++ {
		r.in[p].Flush(drop)
		r.ctl[p].Reset()
	}
	r.inBusy, r.outBusy = allPorts(n), allPorts(n)
	r.decided = 0
}

// Reroute overrides base.Reroute: the NoX input ports hold their own
// reference to the route-table row, repointed alongside the base's.
func (r *noxRouter) Reroute(routes *routing.Table) {
	r.base.Reroute(routes)
	for p := range r.in {
		r.in[p].SetRow(r.row)
	}
}

// Compute presents each input port's offer to the XOR switch and lets every
// output's arbitration-and-masking logic decide.
func (r *noxRouter) Compute(cycle int64) {
	c := r.counters()
	pr := r.probe()

	// Each input presents at most one flit; group presentations by their
	// lookahead output port. Only dirty inputs can hold one (a clean input's
	// Offer is a guaranteed miss).
	n := r.ports
	offers := r.offers
	var offered uint32
	for m := r.inBusy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		f, decoded, ok := r.in[i].Offer()
		if !ok {
			continue
		}
		if pr != nil {
			r.decoded[i] = decoded
		}
		if r.outLink[f.OutPort] == nil {
			panic("router: flit routed to unwired output")
		}
		offers[int(f.OutPort)*n+i] = f
		offered |= 1 << uint(f.OutPort)
	}

	r.decided = 0
	visit := offered | r.outBusy
	for o := noc.Port(0); o < noc.Port(r.ports); o++ {
		link := r.outLink[o]
		if link == nil || visit&(1<<uint(o)) == 0 {
			continue
		}
		r.decided |= 1 << uint(o)
		row := offers[int(o)*n : int(o)*n+n]
		d := r.ctl[o].Decide(row, link.Ready(cycle))
		if d.Out != nil {
			link.Send(d.Out)
			c.Xbar++
			c.LinkFlit++
			c.OutputActive++
			if d.Out.Encoded {
				c.EncodedFlits++
			}
			if pr != nil {
				arg, seq := flitTraceID(d.Out)
				pr.Traverse(cycle, r.node(), int(o), arg, seq)
			}
		}
		if d.Invalid {
			// Multi-flit abort: the channel carries an indeterminate value
			// this cycle (§2.7) — same energy, no information.
			c.LinkInvalid++
			c.WastedCycles++
			c.Aborts++
			if pr != nil {
				pr.Abort(cycle, r.node(), int(o), d.Granted)
			}
			if ck := r.cfg.Check; ck != nil && r.ctl[o].StagedMode() != core.Scheduled {
				// §2.7: an abort must force Scheduled mode until the
				// aborted packet's tail passes.
				ck.Mode(cycle, r.node(), int(o), "multi-flit abort did not stage Scheduled mode")
			}
		}
		if d.Collided && !d.Invalid {
			c.Collisions++
			// The encoded output absorbed every collider's presentation;
			// their objects now belong to the superposition's constituent
			// set (arena lifetime tracking in core.InputPort).
			for m := d.ColliderMask; m != 0; m &= m - 1 {
				r.in[bits.TrailingZeros32(m)].OfferAbsorbed()
			}
			if pr != nil {
				pr.Collision(cycle, r.node(), int(o), int(d.Colliders), d.Out.Raw)
			}
		}
		if d.Arbitrated {
			c.Arb++
		}
		if d.Stalled && pr != nil {
			pr.CreditStall(cycle, r.node(), int(o))
		}
		if d.Serviced >= 0 {
			r.in[d.Serviced].Service()
			if pr != nil && r.decoded[d.Serviced] {
				// The serviced presentation came out of the decode path: a
				// Recovery decode recovered this flit from register XOR head.
				pr.Decode(cycle, r.node(), d.Serviced, row[d.Serviced].Packet.ID)
			}
		}
		// Zero the consumed row in place of the old whole-array clear, so
		// cost scales with rows touched, not radix squared.
		for i := range row {
			row[i] = nil
		}
	}
}

// Latch implements sim.Latcher: the flits staged on the input channels this
// cycle enter their ports' FIFOs.
func (r *noxRouter) Latch(cycle int64) {
	for p, l := range r.inLink {
		if l == nil {
			continue
		}
		if f := l.Take(cycle); f != nil {
			r.receive(noc.Port(p), f, cycle)
		}
	}
}

// Commit latches decode registers, applies pops and mask updates, returns
// freed credits upstream, and takes in this cycle's arrivals.
func (r *noxRouter) Commit(cycle int64) {
	r.commit(cycle)
	r.Latch(cycle)
}

func (r *noxRouter) commit(cycle int64) {
	c := r.counters()
	pr := r.probe()
	for m := r.inBusy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		ev := r.in[i].Commit()
		c.BufRead += int64(ev.Reads)
		if ev.Latched {
			c.RegWrite++
		}
		if ev.Decoded {
			c.Decode++
		}
		if pr != nil && ev.Reads > 0 {
			pr.BufRead(cycle, r.node(), i, ev.Reads)
		}
		if ev.DecodeErr != nil {
			// A lenient input port discarded a corrupt decode register; its
			// constituents may have leaked (they can still be live
			// upstream), so arena exactness no longer holds.
			ck := r.cfg.Check
			ck.Decode(cycle, r.node(), i, ev.DecodeErr)
			ck.MarkLeaky()
		}
		r.returnCredits(noc.Port(i), ev.FreedSlots, cycle)
		if r.in[i].Buffered() == 0 && !r.in[i].RegisterBusy() {
			r.inBusy &^= 1 << uint(i)
		}
	}
	r.outBusy = 0
	if pr == nil {
		for m := r.decided; m != 0; m &= m - 1 {
			o := bits.TrailingZeros32(m)
			r.ctl[o].Commit()
			if !r.ctl[o].Idle() {
				r.outBusy |= 1 << uint(o)
			}
		}
		return
	}
	for o := noc.Port(0); o < noc.Port(r.ports); o++ {
		if r.outLink[o] == nil {
			continue
		}
		ctl := &r.ctl[o]
		if r.decided&(1<<uint(o)) == 0 {
			// Skipped by the dirty walk: the control logic sat untouched in
			// its rest state, which operates (and counts) as Recovery.
			pr.ModeCycle(r.node(), false)
			continue
		}
		before := ctl.Mode()
		// Count the cycle against the mode the output operated in.
		pr.ModeCycle(r.node(), before == core.Scheduled)
		ctl.Commit()
		if after := ctl.Mode(); after != before {
			pr.ModeChange(cycle, r.node(), int(o), int(before), int(after))
		}
		if !ctl.Idle() {
			r.outBusy |= 1 << uint(o)
		}
	}
	pr.Occupancy(r.node(), r.BufferedFlits())
}
