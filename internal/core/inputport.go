package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/noc"
)

// InputPort is the NoX input port of §2.4: a small SRAM FIFO, a single
// decode register, and XOR decode circuitry. It presents at most one flit
// per cycle to the switch fabric:
//
//   - If the FIFO head is unencoded and the register is empty, the head is
//     presented as-is.
//   - If the FIFO head is encoded and the register is empty, no flit is
//     presented this cycle; at the clock edge the head is latched into the
//     register (and its buffer slot freed — the register is storage beyond
//     the FIFO).
//   - If the register is occupied, the register XOR the FIFO head is
//     presented: that difference is exactly the flit that won arbitration
//     upstream one step earlier. When that presentation is serviced, the
//     head either replaces the register (if itself encoded, continuing the
//     chain) or remains buffered to be presented raw next (it is the final,
//     unencoded member of the chain).
//
// The port follows the simulator's two-phase discipline: Offer and Service
// are compute-phase (Offer is a pure function of committed state, Service
// stages the consumption), Commit applies staged actions and performs the
// latch, and Receive is called by the port's owner as it takes in the flit
// staged on the upstream link, after Commit.
//
// When an arena is attached the port also owns two ends of the pooled-flit
// lifetime: decode-path presentation copies it creates, and the encoded
// register value (with the constituents it absorbs) it retires. See Commit.
type InputPort struct {
	// The port is embedded by value in the NoX router's per-port record (and
	// in every network interface), so the state a cycle touches leads — the
	// queue, the register, the cached presentation, the staged flags — and
	// what Init wires once follows.
	fifo buffer.FIFO
	reg  *noc.Flit

	// offerCache memoizes the decoded presentation within a cycle so the
	// same *Flit object is offered, sent, and serviced; nil when no decode
	// has been presented this cycle.
	offerCache *noc.Flit

	serviceStaged bool
	// absorbed marks that this cycle's offer was superimposed into an
	// encoded output flit, which then owns it (see OfferAbsorbed).
	absorbed bool
	// lenient converts decode protocol violations from panics into staged
	// poison consumed at the next commit (see Offer/Commit). Armed by
	// fault-injection runs, where a corrupted chain is an expected outcome
	// and a panic on a sharded worker goroutine would kill the process.
	lenient bool
	poison  error

	// row is this router's precomputed route-table row indexed by packet
	// destination (lookahead route computation in one load); routeFn is the
	// closure fallback for callers without a table. Exactly one is set.
	row     []noc.Port
	routeFn func(noc.NodeID) noc.Port

	// arena recycles decode copies and dead register superpositions; nil
	// falls back to heap allocation with no recycling.
	arena *noc.Arena
}

// Events reports what an InputPort did at a clock edge, for energy and
// credit accounting.
type Events struct {
	// FreedSlots counts FIFO slots freed (credits owed upstream).
	FreedSlots int
	// Reads counts FIFO read accesses.
	Reads int
	// Latched reports a decode-register write.
	Latched bool
	// Decoded reports that a decoded (register XOR head) presentation was
	// consumed by the switch.
	Decoded bool
	// DecodeErr is non-nil when a lenient port discarded a corrupt decode
	// register this edge; the router reports it to the armed checker.
	DecodeErr error
}

// NewInputPort returns an input port with the given FIFO depth. route maps
// a packet destination to this router's output port (lookahead routing).
func NewInputPort(depth int, route func(noc.NodeID) noc.Port) *InputPort {
	p := &InputPort{routeFn: route}
	p.fifo.Init(depth, nil)
	return p
}

// Init initializes a zero InputPort in place — the slab-construction form:
// slots (length buffer.SlotsFor(depth)) backs the FIFO ring, row is the
// router's precomputed route-table row, and arena (optional) recycles the
// port's pooled flits.
func (p *InputPort) Init(depth int, slots []*noc.Flit, row []noc.Port, arena *noc.Arena) {
	*p = InputPort{row: row, arena: arena}
	p.fifo.Init(depth, slots)
}

// route computes the lookahead output port at this router for dst.
func (p *InputPort) route(dst noc.NodeID) noc.Port {
	if p.row != nil {
		return p.row[dst]
	}
	return p.routeFn(dst)
}

// SetLenient selects how the port reacts to a violated decode protocol
// (corrupt XOR chain): lenient ports discard the broken register and report
// the error through Events.DecodeErr instead of panicking.
func (p *InputPort) SetLenient(on bool) { p.lenient = on }

// Free returns the number of free FIFO slots (initial link credits).
func (p *InputPort) Free() int { return p.fifo.Free() }

// Buffered returns the number of buffered flits (decode register excluded).
func (p *InputPort) Buffered() int { return p.fifo.Len() }

// RegisterBusy reports whether the decode register holds an encoded flit.
func (p *InputPort) RegisterBusy() bool { return p.reg != nil }

// VisitPackets calls visit for every packet the port's buffered flits and
// decode register keep reachable (see noc.Flit.VisitPackets). Between steps
// only: the cached decode presentation is gone by then.
func (p *InputPort) VisitPackets(visit func(*noc.Packet)) {
	for i := 0; i < p.fifo.Len(); i++ {
		p.fifo.At(i).VisitPackets(visit)
	}
	if p.reg != nil {
		p.reg.VisitPackets(visit)
	}
}

// Receive buffers a flit delivered by the upstream link. For unencoded
// flits the lookahead output port is computed here, on arrival. Called at
// the end of the owner's commit; the flit is visible to Offer from the next
// cycle.
func (p *InputPort) Receive(f *noc.Flit) {
	if !f.Encoded {
		f.OutPort = p.route(f.Packet.Dst)
	}
	p.fifo.Push(f)
}

// Offer returns the flit currently presented to the switch fabric, if any,
// and whether the presentation came through the decode path. The returned
// flit is stable until the next commit.
func (p *InputPort) Offer() (f *noc.Flit, decoded bool, ok bool) {
	head := p.fifo.Head()
	if p.reg != nil {
		if p.poison != nil {
			// Condemned register: no presentation until the commit discards
			// it and reports the decode violation.
			return nil, false, false
		}
		if head == nil {
			// Mid-chain bubble: the next chain flit has not arrived yet.
			return nil, false, false
		}
		if p.offerCache == nil {
			orig, err := noc.Decode(p.reg, head)
			if err != nil {
				if p.lenient {
					p.poison = err
					return nil, false, false
				}
				panic(fmt.Sprintf("core: decode protocol violated: %v", err))
			}
			// Present a pooled copy: the original object may still be live
			// in an upstream buffer (it was a collision loser there), so
			// its lookahead route must not be overwritten in place.
			cp := p.arena.Clone(orig)
			cp.OutPort = p.route(cp.Packet.Dst)
			p.offerCache = cp
		}
		return p.offerCache, true, true
	}
	if head == nil || head.Encoded {
		// Encoded head with an empty register: this is the latch cycle; no
		// presentation (Fig. 3, cycle 2).
		return nil, false, false
	}
	return head, false, true
}

// Service stages consumption of the current offer: the switch traversed it
// and the output logic confirmed the grant. Must only be called in a cycle
// where Offer returned ok.
func (p *InputPort) Service() {
	if _, _, ok := p.Offer(); !ok {
		panic("core: Service without an active offer")
	}
	p.serviceStaged = true
}

// OfferAbsorbed marks that this cycle's offer was superimposed into an
// encoded output flit, whose constituent set now owns the object. The NoX
// router calls it for every collider of a productive collision. It matters
// only for decode-path presentations: an unserviced decode copy is normally
// dead at the clock edge (a fresh copy is decoded next cycle) and returns
// to the arena — unless a superposition absorbed it, in which case it must
// stay live until that superposition dies downstream and the stale copy
// cancels by packet identity against the copy that eventually traversed.
func (p *InputPort) OfferAbsorbed() { p.absorbed = true }

// Commit applies the staged service and, when the head is encoded and the
// register free, performs the latch. It returns the edge's events.
//
// Commit is also where pooled flits die. When a serviced decode empties or
// replaces the register, the old register superposition is retired: every
// constituent not carried forward by its successor (the new register's
// constituent set, or the raw head itself for the final chain member) is
// unreachable — the recovered original whose copy traversed this cycle, and
// any stale absorbed copies — and returns to the arena, followed by the
// register flit itself. An unserviced, unabsorbed decode copy is likewise
// retired (next cycle decodes a fresh one). Serviced presentations are
// never released here: the consumer owns them (sent downstream by the
// router, or released after delivery by the network interface).
func (p *InputPort) Commit() Events {
	var ev Events
	serviced := p.serviceStaged
	p.serviceStaged = false

	switch {
	case serviced && p.reg != nil:
		// A decoded presentation was consumed.
		ev.Decoded = true
		head := p.fifo.Head()
		if head == nil {
			panic("core: serviced decode with empty FIFO")
		}
		old := p.reg
		if head.Encoded {
			// Chain continues: the head becomes the new register value.
			p.fifo.Pop()
			ev.Reads++
			ev.FreedSlots++
			p.reg = head
			ev.Latched = true
			p.retireRegister(old, head.Parts)
		} else {
			// Final chain member: it stays buffered and will be
			// presented raw next cycle (Fig. 3: C is read for decoding
			// on cycle 3 and transmitted itself on cycle 4).
			ev.Reads++
			p.reg = nil
			last := [1]*noc.Flit{head}
			p.retireRegister(old, last[:])
		}

	case serviced:
		// The head went out raw (Offer presents an encoded head only through
		// the register). It was sent at Compute and belongs to the downstream
		// port by now: pop the slot without looking at the flit.
		p.fifo.Pop()
		ev.Reads++
		ev.FreedSlots++

	default:
		if p.poison != nil {
			// Discard the condemned register. Only the register object
			// itself returns to the arena: its constituents may still be
			// live upstream (collision losers), so they are left to leak —
			// the caller's checker marks the run leaky. The head that
			// failed to decode stays buffered and, if encoded, is latched
			// below, resuming the chain one member later.
			ev.DecodeErr = p.poison
			p.poison = nil
			if p.arena != nil {
				p.arena.Release(p.reg)
			}
			p.reg = nil
		}
		// No service this cycle: latch an encoded head into the free register.
		if p.reg == nil {
			if h := p.fifo.Head(); h != nil && h.Encoded {
				p.fifo.Pop()
				ev.Reads++
				ev.FreedSlots++
				p.reg = h
				ev.Latched = true
			}
		}
		// An unserviced decode copy is stale — unless a collision absorbed
		// it into a live superposition.
		if p.offerCache != nil && !p.absorbed {
			p.arena.Release(p.offerCache)
		}
	}

	p.offerCache = nil
	p.absorbed = false
	return ev
}

// SetRow repoints the port at a new precomputed route-table row. Called by
// the NoX router when a reconfiguration epoch swaps routing tables; flits
// already buffered keep their stale lookahead OutPort, so the caller must
// Flush first if stale routes are unacceptable.
func (p *InputPort) SetRow(row []noc.Port) { p.row = row }

// Flush discards all port state — buffered flits, the decode register, any
// staged service or poison — returning the port to its post-Init rest.
// Every dropped flit object is handed to release before its storage is
// recycled (callers walk the Parts of encoded flits themselves for packet
// accounting); release may be nil. The constituents of encoded flits are
// NOT returned to the arena: exactly as the poison path, they may be the
// very objects still buffered in an upstream port's FIFO (collision
// losers), so they leak and the caller marks the run leaky. Used by
// reconfiguration epochs after a hard fault: wormhole state threaded
// through a dead region cannot make progress and is torn down wholesale.
func (p *InputPort) Flush(release func(*noc.Flit)) {
	drop := func(f *noc.Flit) {
		if release != nil {
			release(f)
		}
		if p.arena != nil {
			p.arena.Release(f)
		}
	}
	for !p.fifo.Empty() {
		drop(p.fifo.Pop())
	}
	if p.reg != nil {
		drop(p.reg)
		p.reg = nil
	}
	if p.offerCache != nil && !p.absorbed && p.arena != nil {
		p.arena.Release(p.offerCache)
	}
	p.offerCache = nil
	p.serviceStaged = false
	p.absorbed = false
	p.poison = nil
}

// retireRegister releases the dead register superposition old: every
// constituent not present (by object identity) in the successor set is
// unreachable and returns to the arena, then old itself. Identity, not
// packet ID: a raw constituent still buffered upstream reappears in the
// successor as the same object and must stay live, while a stale decode
// copy of the same packet is a different object and dies here.
func (p *InputPort) retireRegister(old *noc.Flit, successor []*noc.Flit) {
	if p.arena == nil {
		return
	}
	for _, m := range old.Parts {
		live := false
		for _, s := range successor {
			if s == m {
				live = true
				break
			}
		}
		if !live {
			p.arena.Release(m)
		}
	}
	p.arena.Release(old)
}
