package router

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/routing"
)

// noxPort is everything the NoX router keeps for port p, in one record:
// input p's §2.4 port (FIFO, decode register, XOR decode) with the channel
// feeding it, and output p's §2.6 control logic (masks, mode, arbiter by
// value) with the channel it drives.
type noxPort struct {
	in     core.InputPort
	inLink *noc.Link
	ctl    core.OutputControl
	out    *noc.Link
}

// noxRouter composes internal/core's input ports and output controls into
// the full NoX router of §2: an XOR-based switch with precomputed input
// gating, output arbiters run in parallel with traversal, and input-port
// decode circuitry. Under contention it transmits encoded superpositions
// productively instead of wasting cycles, freeing one winner's buffer per
// cycle; the downstream ports (and the ejection interface) decode by XORing
// contiguously received flits.
type noxRouter struct {
	base
	port []noxPort

	// Dirty masks. inBusy has a bit per input holding undrained work (set on
	// receive, cleared at Commit once FIFO and decode register are empty);
	// outBusy a bit per wired output whose control logic is away from its
	// rest state (recomputed at Commit from ctl.Idle); skipping an idle
	// output is unobservable (OutputControl.Idle). decided records the
	// outputs Decide ran for, the only ones Commit may commit. All exact
	// between steps (construction, Flush, RestoreState): Quiet reads them.
	inBusy  uint32
	outBusy uint32
	decided uint32
}

func newNoX(cfg *Config) *noxRouter {
	s := cfg.Slabs
	r := &s.noxes.take(1, s.chunk)[0]
	r.init(cfg, r)
	n := cfg.Ports
	r.port = s.noxPorts.take(n, s.chunk)
	sl := buffer.SlotsFor(cfg.BufferDepth)
	rings := s.rings.take(n*sl, s.chunk)
	hdrs := s.hdrs.take(n*sl, s.chunk)
	for i := range r.port {
		p := &r.port[i]
		p.in.Init(cfg.BufferDepth, rings[i*sl:(i+1)*sl:(i+1)*sl], r.row, cfg.Arena)
		p.in.Mirror(hdrs[i*sl : (i+1)*sl : (i+1)*sl])
		var arb arbiter.Arbiter
		if cfg.NewArbiter != nil {
			arb = cfg.NewArbiter(n)
		}
		p.ctl.Init(n, arb, cfg.Arena, nil)
		if cfg.Check != nil {
			// Armed: decode corruption and orphan bodies become reported
			// violations instead of panics (injected faults make both
			// legitimately reachable).
			p.in.SetLenient(true)
			p.ctl.SetLenient(true)
		}
	}
	return r
}

// SetInputLink registers the link feeding port p.
func (r *noxRouter) SetInputLink(p noc.Port, l *noc.Link) {
	r.port[p].inLink = l
	r.bindInput(p, l)
}

// SetOutputLink registers the link driven by port p.
func (r *noxRouter) SetOutputLink(p noc.Port, l *noc.Link) { r.wire(&r.port[p].out, p, l) }

// receive buffers a flit latched from port p's channel with the header the
// channel carried: the flit itself is not loaded.
func (r *noxRouter) receive(p noc.Port, f *noc.Flit, h noc.Header, cycle int64) {
	in := &r.port[p].in
	if r.overflow(p, f, cycle, in.Free()) {
		return
	}
	r.inBusy |= 1 << uint(p)
	if h = in.Accept(f, h); !h.Encoded() {
		r.checkWired(h.Port()) // the port computed the lookahead just now
	}
	r.counters.BufWrite++
	if pr := r.probe; pr != nil {
		arg, seq := flitTraceID(f)
		pr.BufWrite(cycle, int(r.node), int(p), arg, seq)
	}
}

// BufferedFlits returns the flits held in input FIFOs and decode registers.
func (r *noxRouter) BufferedFlits() int {
	n := 0
	for m := r.inBusy; m != 0; m &= m - 1 {
		in := &r.port[bits.TrailingZeros32(m)].in
		n += in.Buffered()
		if in.RegisterBusy() {
			n++
		}
	}
	return n
}

// PortStates implements Router: input FIFO/register occupancy plus the
// matching output's mode, wormhole lock, and link credits.
func (r *noxRouter) PortStates(buf []PortState) []PortState {
	for i := range r.port {
		p := &r.port[i]
		ps := PortState{Buffered: p.in.Buffered(), Register: p.in.RegisterBusy(), OutMode: -1, OutLock: -1, OutCredits: -1}
		if p.out != nil {
			ps.OutMode, ps.OutLock, ps.OutCredits = int(p.ctl.Mode()), p.ctl.Locked(), p.out.Credits()
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
func (r *noxRouter) Quiet() bool { return r.inBusy|r.outBusy == 0 }

// scanMasks computes the dirty masks from the port records: inputs holding
// a flit or a decode register, wired outputs away from rest.
func (r *noxRouter) scanMasks() (inBusy, outBusy uint32) {
	for i := range r.port {
		p := &r.port[i]
		if p.in.Buffered() != 0 || p.in.RegisterBusy() {
			inBusy |= 1 << uint(i)
		}
		if p.out != nil && !p.ctl.Idle() {
			outBusy |= 1 << uint(i)
		}
	}
	return inBusy, outBusy
}

// Audit implements Router: the masks, and each input port's header mirror
// against the flits it mirrors.
func (r *noxRouter) Audit() error {
	for i := range r.port {
		if err := r.port[i].in.Audit(r.wired); err != nil {
			return fmt.Errorf("router %d input %d: %w", r.node, i, err)
		}
	}
	inBusy, outBusy := r.scanMasks()
	return r.auditMasks("inBusy/outBusy", [4]uint32{r.inBusy, r.outBusy}, [4]uint32{inBusy, outBusy})
}

// Flush implements Router: tears down every input port (FIFO, decode
// register, poison) through drop and forces every output's control logic
// back to its rest state. Constituents of encoded flits leak by design
// (see core.InputPort.Flush); the caller marks the run leaky.
func (r *noxRouter) Flush(drop func(*noc.Flit)) {
	for i := range r.port {
		r.port[i].in.Flush(drop)
		r.port[i].ctl.Reset()
	}
	r.inBusy, r.outBusy, r.decided, r.staged = 0, 0, 0, 0
}

// Reroute overrides base.Reroute: the NoX input ports hold their own
// reference to the route-table row, repointed alongside the base's.
func (r *noxRouter) Reroute(routes *routing.Table) {
	r.base.Reroute(routes)
	for i := range r.port {
		r.port[i].in.SetRow(r.row)
	}
}

// noxScratch is the working set of one NoX Compute: what each input presents
// with its header, and the request vector per output. Compute clears exactly
// the offers and requests it wrote (a header is read only under its request
// bit), so one all-zero scratch serves every router of a lane (one goroutine
// walks a lane: shards never share one) instead of each router keeping
// radix-squared pointers of its own.
type noxScratch struct {
	offer [maxPorts]*noc.Flit
	hdr   [maxPorts]noc.Header
	req   [maxPorts]uint32
}

// Compute is compute for a router stepped outside a lane, on a fresh scratch.
func (r *noxRouter) Compute(cycle int64) {
	var s noxScratch
	r.compute(cycle, &s)
}

// compute presents each input port's offer to the XOR switch and lets every
// output's arbitration-and-masking logic decide.
func (r *noxRouter) compute(cycle int64, s *noxScratch) {
	c := r.counters
	pr := r.probe
	port := r.port

	// Each input presents at most one flit; group presentations by their
	// lookahead output port. Only dirty inputs can hold one (a clean input's
	// Present is a guaranteed miss). A raw presentation's header comes from
	// the port's mirror: the flit is not loaded.
	offer, hdr, req := &s.offer, &s.hdr, &s.req
	var offered, decoded uint32
	for m := r.inBusy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		f, h, dec := port[i].in.Present()
		if f == nil {
			continue
		}
		o := h.Port()
		if dec {
			// A decode copy's lookahead is computed inside Present.
			r.checkWired(o)
			decoded |= 1 << uint(i)
		}
		offer[i], hdr[i] = f, h
		req[o] |= 1 << uint(i)
		offered |= 1 << uint(o)
	}

	r.decided = offered | r.outBusy
	for v := r.decided; v != 0; v &= v - 1 {
		o := bits.TrailingZeros32(v)
		p := &port[o]
		d := p.ctl.DecideFor(offer[:], hdr[:], req[o], p.out.Ready(cycle))
		if d.Out != nil {
			if pr != nil {
				arg, seq := flitTraceID(d.Out)
				pr.Traverse(cycle, int(r.node), o, arg, seq)
			}
			c.Xbar++
			c.LinkFlit++
			c.OutputActive++
			if d.Collided() {
				// A driven collision is a productive one: its superposition.
				c.EncodedFlits++
			}
		}
		if d.Invalid() {
			// Multi-flit abort: the channel carries an indeterminate value
			// this cycle (§2.7) — same energy, no information.
			c.LinkInvalid++
			c.WastedCycles++
			c.Aborts++
			if pr != nil {
				pr.Abort(cycle, int(r.node), o, d.Granted)
			}
			if ck := r.check; ck != nil && p.ctl.StagedMode() != core.Scheduled {
				// §2.7: an abort must force Scheduled mode until the
				// aborted packet's tail passes.
				ck.Mode(cycle, int(r.node), o, "multi-flit abort did not stage Scheduled mode")
			}
		}
		if d.Collided() && !d.Invalid() {
			c.Collisions++
			// The encoded output absorbed every collider's presentation;
			// their objects now belong to the superposition's constituent
			// set (arena lifetime tracking in core.InputPort).
			for m := d.ColliderMask(); m != 0; m &= m - 1 {
				port[bits.TrailingZeros32(m)].in.OfferAbsorbed()
			}
			if pr != nil {
				pr.Collision(cycle, int(r.node), o, d.Colliders(), d.Out.Raw)
			}
		}
		if d.Arbitrated() {
			c.Arb++
		}
		if d.Stalled() && pr != nil {
			pr.CreditStall(cycle, int(r.node), o)
		}
		if d.Serviced >= 0 {
			port[d.Serviced].in.Service()
			if pr != nil && decoded&(1<<uint(d.Serviced)) != 0 {
				// The serviced presentation came out of the decode path: a
				// Recovery decode recovered this flit from register XOR head.
				pr.Decode(cycle, int(r.node), d.Serviced, offer[d.Serviced].ID)
			}
		}
		if d.Out != nil {
			// Last: the flit belongs to the downstream port once sent. It
			// travels with its header: the sole traverser's, or a
			// superposition's.
			h := noc.EncodedHeader
			if !d.Collided() {
				h = hdr[d.Serviced]
			}
			p.out.SendHeader(d.Out, h)
		}
		for m := req[o]; m != 0; m &= m - 1 {
			offer[bits.TrailingZeros32(m)] = nil
		}
		req[o] = 0
	}
}

// Latch implements sim.Latcher: the flits staged on the input channels this
// cycle enter their ports' FIFOs. Only the channels named in the staged-input
// mask carry one, taken in ascending port order.
func (r *noxRouter) Latch(cycle int64) {
	for m := r.staged; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if f, h := r.port[i].inLink.Take(cycle); f != nil {
			r.receive(noc.Port(i), f, h, cycle)
		}
	}
	r.staged = 0
}

// Commit latches decode registers, applies pops and mask updates, returns
// freed credits upstream, and takes in this cycle's arrivals.
func (r *noxRouter) Commit(cycle int64) {
	r.commit(cycle)
	r.Latch(cycle)
}

func (r *noxRouter) commit(cycle int64) {
	c := r.counters
	pr := r.probe
	port := r.port
	for m := r.inBusy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		p := &port[i]
		ev := p.in.Commit()
		c.BufRead += int64(ev.Reads())
		if ev.Latched {
			c.RegWrite++
		}
		if ev.Decoded {
			c.Decode++
		}
		if pr != nil && ev.Reads() > 0 {
			pr.BufRead(cycle, int(r.node), i, ev.Reads())
		}
		if ev.DecodeErr != nil {
			// A lenient input port discarded a corrupt decode register; its
			// constituents may have leaked (they can still be live
			// upstream), so arena exactness no longer holds.
			r.check.Decode(cycle, int(r.node), i, ev.DecodeErr)
			r.check.MarkLeaky()
		}
		if ev.FreedSlots != 0 {
			returnCredits(p.inLink, int(ev.FreedSlots), cycle)
		}
		if p.in.Buffered() == 0 && !p.in.RegisterBusy() {
			r.inBusy &^= 1 << uint(i)
		}
	}
	// Commit the outputs Decide ran for. A probe hears of every wired
	// output: one the dirty walk skipped sat untouched in its rest state,
	// which operates (and counts) as Recovery.
	r.outBusy = 0
	walk := r.decided
	if pr != nil {
		walk = r.wired
	}
	for w := walk; w != 0; w &= w - 1 {
		o := bits.TrailingZeros32(w)
		ctl := &port[o].ctl
		if r.decided&(1<<uint(o)) == 0 {
			pr.ModeCycle(int(r.node), false)
			continue
		}
		before := ctl.Mode()
		ctl.Commit()
		if pr != nil {
			// Count the cycle against the mode the output operated in.
			pr.ModeCycle(int(r.node), before == core.Scheduled)
			if after := ctl.Mode(); after != before {
				pr.ModeChange(cycle, int(r.node), o, int(before), int(after))
			}
		}
		if !ctl.Idle() {
			r.outBusy |= 1 << uint(o)
		}
	}
	if pr != nil {
		pr.Occupancy(int(r.node), r.BufferedFlits())
	}
}
