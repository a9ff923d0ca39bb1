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
// The port follows the simulator's two-phase discipline: Present (Offer) and
// Service are compute-phase (Present is a pure function of committed state,
// Service stages the consumption), Commit applies staged actions and performs
// the latch, and Accept (Receive) is called by the port's owner as it takes in
// the flit staged on the upstream link, after Commit.
//
// A port with a header mirror (Mirror) reads a flit only for its payload: to
// decode (register XOR head). Everything else a hop decides — latch,
// presentation, route, the output's wormhole lock — reads the header kept
// beside the flit pointer.
//
// When an arena is attached the port also owns two ends of the pooled-flit
// lifetime: decode-path presentation copies it creates, and the encoded
// register value (with the constituents it absorbs) it retires. See Commit.
type InputPort struct {
	// The port is embedded by value in the NoX router's per-port record (and
	// in every network interface), so the state a cycle touches leads — the
	// queue and its header mirror, the register, the cached presentation,
	// the staged flags — and what Init wires once follows.
	fifo buffer.FIFO
	// hdr mirrors the FIFO ring slot for slot: each buffered flit's routing
	// header with its lookahead output port at this router, written where
	// the flit enters (Accept, RestoreState). Offer, Service and Commit read
	// it instead of the flit. Nil on a port that reads each header off its
	// flit instead (Init without Mirror): a network interface's sink, which
	// loads every flit it buffers to deliver it anyway.
	hdr []noc.Header
	reg *noc.Flit

	// offerCache memoizes the decoded presentation within a cycle so the
	// same *Flit object is offered, sent, and serviced; nil when no decode
	// has been presented this cycle. offerHdr is its header.
	offerCache *noc.Flit
	offerHdr   noc.Header

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
	// destination: lookahead route computation in one load.
	row []noc.Port

	// arena recycles decode copies and dead register superpositions; nil
	// falls back to heap allocation with no recycling.
	arena *noc.Arena
}

// Events reports what an InputPort did at a clock edge, for energy and
// credit accounting. Four narrow fields, so that Commit returns it in
// registers.
type Events struct {
	// FreedSlots counts FIFO slots freed (credits owed upstream): 0 or 1.
	FreedSlots uint8
	// Latched reports a decode-register write.
	Latched bool
	// Decoded reports that a decoded (register XOR head) presentation was
	// consumed by the switch.
	Decoded bool
	// DecodeErr is non-nil when a lenient port discarded a corrupt decode
	// register this edge; the router reports it to the armed checker.
	DecodeErr error
}

// Reads counts the edge's FIFO read accesses: one with every freed slot, and
// one for a consumed decode that leaves the chain's final member buffered
// (its head is read to decode, not popped).
func (e Events) Reads() int {
	if e.Decoded {
		return 1
	}
	return int(e.FreedSlots)
}

// NewInputPort returns an input port with the given FIFO depth and a header
// mirror. row maps a packet destination to this router's output port
// (lookahead routing).
func NewInputPort(depth int, row []noc.Port) *InputPort {
	p := &InputPort{row: row}
	p.fifo.Init(depth, nil)
	p.Mirror(make([]noc.Header, buffer.SlotsFor(depth)))
	return p
}

// Init initializes a zero InputPort in place — the slab-construction form:
// slots (length buffer.SlotsFor(depth)) backs the FIFO ring, row is the
// router's precomputed route-table row, and arena (optional) recycles the
// port's pooled flits. The port reads its flits' headers off the flits
// until Mirror gives it a mirror.
func (p *InputPort) Init(depth int, slots []*noc.Flit, row []noc.Port, arena *noc.Arena) {
	*p = InputPort{row: row, arena: arena}
	p.fifo.Init(depth, slots)
}

// Mirror gives an empty port hdrs, exactly as long as its FIFO ring, to keep
// each buffered flit's header in (see InputPort.hdr) — the slab-construction
// form, carved beside the ring.
func (p *InputPort) Mirror(hdrs []noc.Header) {
	if len(hdrs) != buffer.SlotsFor(p.fifo.Cap()) || !p.fifo.Empty() {
		panic("core: a header mirror is as long as the FIFO ring, and set on an empty port")
	}
	p.hdr = hdrs
}

// routed returns h with the lookahead output port at this router for its
// destination; an encoded header is returned as it is.
func (p *InputPort) routed(h noc.Header) noc.Header {
	if h.Encoded() {
		return h
	}
	return h.Route(p.row[h.Dst()])
}

// headerAt returns the header of the k-th buffered flit (0 = the head), its
// lookahead port included: from the mirror, or off the flit on a port
// without one.
func (p *InputPort) headerAt(k int) noc.Header {
	if p.hdr != nil {
		return p.hdr[p.fifo.Index(k)]
	}
	return p.routed(p.fifo.At(k).Header())
}

// headEncoded reports whether the FIFO head, which must exist, is a
// superposition: the one header bit the latch and an offer turn on.
func (p *InputPort) headEncoded() bool {
	if p.hdr != nil {
		return p.hdr[p.fifo.Index(0)].Encoded()
	}
	return p.fifo.Head().Encoded
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

// Accept buffers a flit delivered by the upstream link together with the
// header the link carried beside it, and returns the header as buffered: an
// unencoded flit's with the lookahead output port at this router, computed
// here, on arrival, from the destination — without loading the flit. Called
// at the end of the owner's commit; the flit is visible to Offer from the
// next cycle.
func (p *InputPort) Accept(f *noc.Flit, h noc.Header) noc.Header {
	h = p.routed(h)
	i := p.fifo.Push(f)
	if p.hdr != nil {
		p.hdr[i] = h
	}
	return h
}

// Receive is Accept with the header read off the flit, for a caller that
// holds the flit but not its header. The routers call Accept; the benchmark
// rigs under benchmark/ are Receive's one non-test caller.
func (p *InputPort) Receive(f *noc.Flit) { p.Accept(f, f.Header()) }

// Present returns the flit currently presented to the switch fabric with its
// header (lookahead port included), a nil flit if none, and whether the
// presentation came through the decode path. The returned flit is stable
// until the next commit. A raw presentation reads the header mirror and the
// ring, not the flit.
func (p *InputPort) Present() (f *noc.Flit, h noc.Header, decoded bool) {
	switch f, decoded = p.presented(); {
	case f == nil:
		return nil, 0, false
	case decoded:
		return f, p.offerHdr, true
	}
	return f, p.headerAt(0), false
}

// Offer is Present without the header: the flit presented this cycle,
// whether it came through the decode path, and whether there is one.
func (p *InputPort) Offer() (f *noc.Flit, decoded bool, ok bool) {
	f, decoded = p.presented()
	return f, decoded, f != nil
}

// presented returns the flit presented this cycle, nil if none, and whether
// it came through the decode path.
func (p *InputPort) presented() (*noc.Flit, bool) {
	if p.reg != nil {
		if p.poison != nil {
			// Condemned register: no presentation until the commit discards
			// it and reports the decode violation.
			return nil, false
		}
		if p.fifo.Empty() {
			// Mid-chain bubble: the next chain flit has not arrived yet.
			return nil, false
		}
		if p.offerCache == nil && !p.decode() {
			return nil, false
		}
		return p.offerCache, true
	}
	if p.fifo.Empty() || p.headEncoded() {
		// Nothing, or an encoded head with an empty register: this is the
		// latch cycle; no presentation (Fig. 3, cycle 2).
		return nil, false
	}
	return p.fifo.Head(), false
}

// decode recovers the flit the register XOR the FIFO head presents into the
// offer cache, and reports whether it could (a lenient port poisons itself on
// a corrupt chain).
func (p *InputPort) decode() bool {
	orig, err := noc.Decode(p.reg, p.fifo.Head())
	if err != nil {
		if p.lenient {
			p.poison = err
			return false
		}
		panic(fmt.Sprintf("core: decode protocol violated: %v", err))
	}
	// Present a pooled copy: the original object may still be live in an
	// upstream buffer (it was a collision loser there), so its lookahead
	// route must not be overwritten in place.
	cp := p.arena.Clone(orig)
	h := p.routed(cp.Header())
	cp.OutPort = h.Port()
	p.offerCache, p.offerHdr = cp, h
	return true
}

// Service stages consumption of the current offer: the switch traversed it
// and the output logic confirmed the grant. Must only be called in a cycle
// where Offer returned ok.
func (p *InputPort) Service() {
	if f, _ := p.presented(); f == nil {
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
		if p.fifo.Empty() {
			panic("core: serviced decode with empty FIFO")
		}
		head := p.fifo.Head()
		old := p.reg
		if p.headEncoded() {
			// Chain continues: the head becomes the new register value.
			p.fifo.Pop()
			ev.FreedSlots = 1
			p.reg = head
			ev.Latched = true
			p.retireRegister(old, head.Parts)
		} else {
			// Final chain member: it stays buffered and will be
			// presented raw next cycle (Fig. 3: C is read for decoding
			// on cycle 3 and transmitted itself on cycle 4).
			p.reg = nil
			last := [1]*noc.Flit{head}
			p.retireRegister(old, last[:])
		}

	case serviced:
		// The head went out raw (Offer presents an encoded head only through
		// the register). It was sent at Compute and belongs to the downstream
		// port by now: pop the slot without looking at the flit.
		p.fifo.Pop()
		ev.FreedSlots = 1

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
		if p.reg == nil && !p.fifo.Empty() && p.headEncoded() {
			p.reg = p.fifo.Pop()
			ev.FreedSlots = 1
			ev.Latched = true
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
// already buffered keep the stale lookahead port of their mirrored header, so
// the caller must Flush first if stale routes are unacceptable. (A port
// without a mirror routes a buffered flit when it reads it.)
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
