package router

import (
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/noc"
)

// nsPort is the non-speculative router's own half of port p: output p's
// channel, arbiter and wormhole lock.
type nsPort struct {
	out *noc.Link
	// arb is output p's arbiter; it points at rr unless Config.NewArbiter
	// supplied another.
	arb arbiter.Arbiter
	rr  arbiter.RoundRobin
	// lock is the input holding output p through a multi-flit packet, -1 if
	// none; lockNext is its staged successor, valid for touched outputs.
	lock     int8
	lockNext int8
}

// nonspecRouter is the canonical sequential baseline of §3.1.1: switch
// arbitration and switch traversal execute back-to-back within one long
// clock cycle (0.92 ns, Table 2), with lookahead route computation
// overlapped. Outputs are productive every cycle regardless of internal
// contention — the architecture trades clock period for efficiency.
type nonspecRouter struct {
	baseline
	port []nsPort
	// touched is the dirty-output mask of the current cycle: outputs with at
	// least one requester, i.e. the only ones whose lockNext Compute wrote.
	// Commit applies exactly these — a requestless output's lock is held by
	// not touching it at all.
	touched uint32
}

func newNonSpec(cfg *Config) *nonspecRouter {
	s := cfg.Slabs
	r := &s.nonspecs.take(1)[0]
	r.init(cfg, r)
	r.port = s.nsPorts.take(cfg.Ports)
	for i := range r.port {
		p := &r.port[i]
		p.arb = arbiterFor(cfg, &p.rr)
		p.lock = -1
	}
	return r
}

// SetOutputLink registers the link driven by port p.
func (r *nonspecRouter) SetOutputLink(p noc.Port, l *noc.Link) { r.wire(&r.port[p].out, p, l) }

// PortStates implements Router.
func (r *nonspecRouter) PortStates(buf []PortState) []PortState {
	for i := range r.port {
		buf = append(buf, r.portState(i, r.port[i].out, r.port[i].lock))
	}
	return buf
}

// Quiet implements sim.Quiescable: with every input FIFO empty the router
// stages nothing and changes nothing. Output locks may outlive the local
// buffers (upstream bubble inside a wormhole packet) but are held, not
// mutated, by empty cycles; the arrival that ends the bubble re-activates
// the router through its input link's wake.
func (r *nonspecRouter) Quiet() bool { return r.busy == 0 }

// Audit implements Router.
func (r *nonspecRouter) Audit() error {
	busy, err := r.auditInputs()
	if err != nil {
		return err
	}
	return r.auditMasks("busy/pops", [4]uint32{r.busy, r.pops}, [4]uint32{busy})
}

// Flush implements Router: drains every input FIFO through drop and clears
// all wormhole locks and staged actions.
func (r *nonspecRouter) Flush(drop func(*noc.Flit)) {
	r.flushInputs(drop)
	for i := range r.port {
		r.port[i].lock = -1
	}
	r.touched = 0
}

// Compute arbitrates each output and traverses the winner in the same cycle.
func (r *nonspecRouter) Compute(cycle int64) {
	var req [maxPorts]uint32
	r.touched = r.gather(&req)
	for m := r.touched; m != 0; m &= m - 1 {
		o := bits.TrailingZeros32(m)
		p := &r.port[o]
		p.lockNext = p.lock
		if !p.out.Ready(cycle) {
			if pr := r.probe; pr != nil {
				pr.CreditStall(cycle, int(r.node), o)
			}
			continue // backpressure (or injected stall): output stalls, lock holds
		}

		winner := int(p.lock)
		if winner >= 0 {
			// Wormhole continuation: the output belongs to a multi-flit
			// packet until its tail passes.
			if req[o]&(1<<uint(winner)) == 0 {
				continue // upstream bubble inside the packet
			}
		} else {
			winner, _ = p.arb.Grant(req[o]) // req[o] != 0: o is touched
			r.counters.Arb++
		}
		p.lockNext = r.send(winner, o, p.out, p.lock, cycle)
	}
}

// Commit pops the traversed flits, returns their credits upstream, and takes
// in this cycle's arrivals.
func (r *nonspecRouter) Commit(cycle int64) {
	for m := r.pops; m != 0; m &= m - 1 {
		r.pop(bits.TrailingZeros32(m), cycle)
	}
	r.pops = 0
	for m := r.touched; m != 0; m &= m - 1 {
		p := &r.port[bits.TrailingZeros32(m)]
		p.lock = p.lockNext
	}
	if pr := r.probe; pr != nil {
		pr.Occupancy(int(r.node), r.BufferedFlits())
	}
	r.Latch(cycle)
}
