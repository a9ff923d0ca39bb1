package noc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/probe"
)

// Waker is how a channel tells the simulation kernel that a neighbour handed
// a component input in the middle of a step, by that component's integer
// kernel handle. *sim.Kernel implements it; the indirection keeps noc free
// of a kernel dependency.
type Waker interface {
	// Arrive marks component h as having received input this cycle: if it
	// was parked it latches at this cycle's commit and is evaluated in full
	// from the next cycle on (see sim.Kernel.Arrive).
	Arrive(h int)
}

// Receiver consumes flits delivered by a hand-driven link's Commit: a router
// input port or a network-interface sink.
type Receiver interface {
	// Receive is called during the commit phase of the cycle in which the
	// flit traversed the link; the flit becomes usable next cycle.
	Receive(f *Flit, cycle int64)
}

// Tamperer injects channel-level faults. Every link in a network may carry
// one, identified by a small dense site index assigned at construction.
// Decisions must be pure functions of (site, cycle) plus the tamperer's own
// seed — never of call order — so that fault firings are bit-identical
// across shard counts (the sharded kernel latches channels on different
// goroutines but at identical cycles). internal/fault implements it.
type Tamperer interface {
	// TamperFlit is consulted at commit for every flit crossing the site.
	// It may corrupt f.Raw in place (bit-flip) and returns true to drop the
	// flit entirely: the sink never sees it and the sender's credit is
	// permanently lost at this site.
	TamperFlit(site int32, cycle int64, f *Flit) (drop bool)
	// TamperCredits is consulted at commit with the n credits the sink
	// returned this cycle and returns how many the sender actually receives
	// (loss and duplication faults).
	TamperCredits(site int32, cycle int64, n int) int
	// LinkStalled reports whether the channel refuses new traffic this
	// cycle. Senders observe it through Ready; an in-flight flit still
	// lands (the fault models a busy/backpressured channel, not loss).
	LinkStalled(site int32, cycle int64) bool
}

// LinkEnv is what the channels latched by one shard of one network share:
// the kernel they wake, the fault injector they consult, the flit pool a
// dropped flit returns to and the probe that hears of deliveries. A link
// holds one pointer to it instead of a copy of each, which is most of what
// keeps the per-channel record to a cache line. Every field is optional; the
// zero LinkEnv is a channel with no kernel, no faults and no probe.
type LinkEnv struct {
	// Waker is told of every Send (by the sink's handle) and of a credit
	// count lifting off zero (by the driver's).
	Waker Waker
	// Tamper, when non-nil, is the fault injector of these channels; each
	// identifies itself by its site index.
	Tamper Tamperer
	// Arena is the sink-side flit pool a flit dropped on the wire is
	// released to (the sink takes the flit, so the release stays
	// intra-shard). Nil leaks dropped flit objects; the injector accounts
	// for them.
	Arena *Arena
	// Probe, when non-nil, receives an EvLink event per delivered flit.
	Probe *probe.Probe
}

// noEnv is the environment of a link nobody bound: hand-driven channels in
// tests and rigs.
var noEnv LinkEnv

// Link is a unidirectional 64-bit channel with credit-based flow control.
// One simulated cycle covers switch traversal plus the 2 mm channel (§6.1
// folds the 98 ps link delay into every router's clock period), so a flit
// sent during cycle t is usable by the receiver at cycle t+1.
//
// A link is a passive record, not a simulation component: a register at the
// sink's input plus the sender's credit counter. The sender stages a flit
// with Send during its compute phase; the sink — the component that owns the
// link — ends its own commit by taking whatever was staged (Take) and by
// handing back the buffer slots it freed (ReturnCredits). Sending transfers
// ownership: the sink may drop, swallow or recycle the flit in the same
// commit phase, so a sender must not dereference a flit after Send.
//
// A sink with several input channels (a router) binds each to a bit of its
// staged-input mask (SetSinkMask): Send raises the bit, the hardware's
// per-port write strobe, and the sink's latch takes from the channels whose
// bits are up instead of polling every one. A sink with a single channel (a
// network interface) binds none and takes from it directly.
//
// Credits are owned by the sender side: Credits reports downstream buffer
// slots known free. Returns made during cycle t are visible to the sender at
// t+1 (nothing reads the count during a commit phase), giving the 2-3 cycle
// round-trip credit loop that Table 1's 4-deep buffers are sized to cover.
//
// Commit and ReturnCredit are the hand-driven form for a link with no owning
// component (tests, the benchmark rigs): Commit delivers through the
// Receiver the link was built with (NewLink). A link a component owns is
// built with Init and has no Receiver.
type Link struct {
	// staged, credits, sinkH, env and the sink's mask lead: they are all a
	// Send writes or reads, and all a sink's latch touches of a channel whose
	// bit is up. A network carves each sink's input channels contiguously
	// (see network.New). The whole record is one 64-byte line.
	staged  *Flit
	credits int32
	// sinkH is the kernel handle of the component owning the sink side,
	// told of every Send; srcH that of an NI driving the channel, told when
	// returned credits lift the count off zero (an NI mid-packet on an
	// exhausted injection channel is quiet), -1 when the driver is a router — a
	// router holding flits is never quiet, so it needs no such edge.
	sinkH int32
	// env is what the channel shares with its neighbours (never nil).
	env *LinkEnv
	// mask is the sink's staged-input mask and bit the sink port whose bit
	// Send raises in it; nil for a sink that takes from its one channel
	// directly. shared marks a sink that another shard's senders also
	// drive: its bits are raised with an atomic add, as two senders on two
	// workers can hit the word in one compute phase.
	mask   *uint32
	bit    uint8
	shared bool

	// probeNode/probePort identify the channel to the probe by its driver:
	// (router, port) for inter-router and ejection channels, (core, -1) for
	// injection channels.
	probePort int8
	probeNode int32

	srcH int32
	// site is the network-assigned channel index the fault injector keys
	// on. capacity remembers the initial credit count for post-drain
	// conservation checks.
	site     int32
	capacity int32

	// hand is the hand-driven part: nil on a link a component owns.
	hand *handDriven
}

// handDriven is what only a hand-driven link keeps: where Commit delivers
// and the credit returns staged through ReturnCredit.
type handDriven struct {
	sink    Receiver
	returns int32
}

// NewLink returns a hand-driven link feeding sink whose receiver advertises
// credits buffer slots.
func NewLink(sink Receiver, credits int) *Link {
	if sink == nil {
		panic("noc: link requires a sink")
	}
	hl := &struct {
		link Link
		hand handDriven
	}{hand: handDriven{sink: sink}}
	hl.link.Init(credits)
	hl.link.hand = &hl.hand
	return &hl.link
}

// Init initializes a zero Link in place as a channel its sink component owns
// and latches itself (Take) — the slab-construction form, letting a network
// carve all of its channels from one allocation. Its sink advertises credits
// buffer slots.
func (l *Link) Init(credits int) {
	if credits <= 0 {
		panic("noc: link requires positive credits")
	}
	*l = Link{credits: int32(credits), capacity: int32(credits), sinkH: -1, srcH: -1, env: &noEnv}
}

// Bind places the link in a network: env is the environment it shares with
// the other channels its sink's shard latches, site its channel index, sink
// the kernel handle of the component owning the receiving side (told of
// every Send, so a parked sink latches the flit) and src the handle of the
// sender-side component to tell when returned credits lift the count off
// zero, -1 for none. shared says the sink has an input driven from another
// shard (see SetSinkMask).
func (l *Link) Bind(env *LinkEnv, site, sink, src int, shared bool) {
	l.env, l.site, l.sinkH, l.srcH, l.shared = env, int32(site), int32(sink), int32(src), shared
}

// SetSinkMask binds the link to bit port of its sink's staged-input mask:
// every Send raises the bit, and the sink clears the mask once its latch has
// taken from the channels named in it. The mask stays zero between steps.
func (l *Link) SetSinkMask(mask *uint32, port int) {
	if port < 0 || port >= 32 {
		panic("noc: sink mask bit out of range")
	}
	l.mask, l.bit = mask, uint8(port)
}

// SetProbeID names the channel in the probe events of its environment by the
// driving (node, port); injection channels pass the core ID with port -1.
func (l *Link) SetProbeID(node, port int) {
	l.probeNode, l.probePort = int32(node), int8(port)
}

// Credits returns the sender's current credit count.
func (l *Link) Credits() int { return int(l.credits) }

// Capacity returns the credit count the link was initialized with — the
// downstream buffer depth. After a full drain of a fault-free network,
// Credits() must equal Capacity().
func (l *Link) Capacity() int { return int(l.capacity) }

// RestoreCredits overwrites the sender-side credit count — checkpoint
// restore only, between steps (credits are the link's only between-step
// state; a staged flit is always taken within its cycle). Counts above
// Capacity are legal under credit-duplication faults, so only gross
// corruption is rejected.
func (l *Link) RestoreCredits(c int) error {
	if c < 0 || c > 1<<20 {
		return fmt.Errorf("noc: restored credit count %d out of range", c)
	}
	l.credits = int32(c)
	return nil
}

// Ready reports whether the sender may drive the link this cycle: it holds
// a credit and no stall fault is active on the channel. Senders must gate
// on Ready rather than Credits() > 0 so that injected stalls behave exactly
// like real backpressure.
func (l *Link) Ready(cycle int64) bool {
	return l.credits != 0 && (l.env.Tamper == nil || !l.env.Tamper.LinkStalled(l.site, cycle))
}

// Send stages a flit for the sink to take at this cycle's commit, consuming
// one credit, raises the channel's bit in the sink's staged-input mask, and
// tells the kernel the sink has input. Called by the sender during its
// compute phase; sending without a credit or sending twice in one cycle
// panics (simulator bug). The flit belongs to the sink from here on.
func (l *Link) Send(f *Flit) {
	if l.staged != nil {
		panic("noc: link driven twice in one cycle")
	}
	if l.credits == 0 {
		panic("noc: send without credit")
	}
	if f == nil {
		panic("noc: send of nil flit")
	}
	l.credits--
	l.staged = f
	if m := l.mask; m != nil {
		if l.shared {
			// The bit is down (the channel held no flit), so the add is an
			// OR, and a single locked instruction.
			atomic.AddUint32(m, 1<<l.bit)
		} else {
			*m |= 1 << l.bit
		}
	}
	if w := l.env.Waker; w != nil {
		w.Arrive(int(l.sinkH))
	}
}

// Take is the sink's latch: it removes and returns the flit staged this
// cycle, nil when the channel was idle or a fault dropped the flit on the
// wire. The owning component calls it at the end of its commit and buffers
// the result.
func (l *Link) Take(cycle int64) *Flit {
	if l.staged == nil {
		return nil
	}
	return l.take(cycle)
}

// take is Take with a flit staged, kept apart so that the idle-channel test
// inlines into the sink's latch loop.
func (l *Link) take(cycle int64) *Flit {
	f := l.staged
	l.staged = nil
	env := l.env
	if env.Tamper != nil && env.Tamper.TamperFlit(l.site, cycle, f) {
		// Dropped on the wire: the sink never learns about the flit, so the
		// sender's consumed credit is never returned. Only the flit object
		// itself is recycled — constituents of an encoded flit may still be
		// referenced upstream and are left to leak (accounted for by the
		// injector's Leaky flag).
		env.Arena.Release(f)
		return nil
	}
	if pr := env.Probe; pr != nil {
		if f.Encoded {
			pr.Link(cycle, int(l.probeNode), int(l.probePort), f.Raw, -1)
		} else {
			pr.Link(cycle, int(l.probeNode), int(l.probePort), f.ID, f.Seq)
		}
	}
	return f
}

// ReturnCredits hands n freed buffer slots back to the sender — the sink
// calls it from its commit, at most once per channel per cycle (the fault
// injector is consulted per call). The count is applied in place: nothing
// reads it before the next compute phase.
func (l *Link) ReturnCredits(cycle int64, n int) {
	was := l.credits
	if t := l.env.Tamper; t != nil {
		n = t.TamperCredits(l.site, cycle, n)
	}
	l.credits += int32(n)
	// Credit exhaustion lifted: an interface parked on a full injection
	// channel must re-evaluate. Its home router — this channel's sink —
	// shares its shard and commits before it, so the wake stays shard-local
	// and lands ahead of the interface's own commit slot.
	if was == 0 && l.credits > 0 && l.srcH >= 0 && l.env.Waker != nil {
		l.env.Waker.Arrive(int(l.srcH))
	}
}

// ReturnCredit stages one credit return on a hand-driven link; Commit
// applies it.
func (l *Link) ReturnCredit() { l.handPart().returns++ }

// Commit is the hand-driven latch of a link no component owns: it delivers
// the staged flit to the Receiver and applies the returns staged through
// ReturnCredit, including any the Receiver staged while receiving. A flit it
// takes is lowered from the sink's mask, if the link is bound to one, so a
// raised bit always means a staged flit (Send's atomic add relies on it).
func (l *Link) Commit(cycle int64) {
	h := l.handPart()
	if l.staged != nil && l.mask != nil {
		*l.mask &^= 1 << l.bit
	}
	if f := l.Take(cycle); f != nil {
		h.sink.Receive(f, cycle)
	}
	if h.returns > 0 {
		n := int(h.returns)
		h.returns = 0
		l.ReturnCredits(cycle, n)
	}
}

// handPart returns the hand-driven part, panicking on a link a component
// owns: its sink latches it, so a hand-driven call is a wiring bug.
func (l *Link) handPart() *handDriven {
	if l.hand == nil {
		panic("noc: hand-driven call on a component-owned link")
	}
	return l.hand
}
