package core

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/noc"
)

// Mode is the operating mode of an output's arbitration and masking logic
// (§2.6).
type Mode uint8

const (
	// Recovery is the reactive mode: switch and arbitration masks are
	// identical, collisions may freely occur in the XOR switch, and the
	// logic resolves them after the fact.
	Recovery Mode = iota
	// Scheduled is the pre-scheduled mode: the switch mask enables exactly
	// one input (which traverses uncontested) and the arbitration mask is
	// its bitwise complement (everyone else competes to be scheduled next).
	Scheduled
)

// String names the mode.
func (m Mode) String() string {
	if m == Scheduled {
		return "Scheduled"
	}
	return "Recovery"
}

// Decision reports what one output of the NoX switch did in a cycle. It is
// returned by value on the switch's hottest path, so it keeps four fields in
// 32 bytes — the shape the compiler returns in registers; the rest are flag
// bits read through methods.
type Decision struct {
	// Out is the wire flit driven on the output channel, nil if none. It is
	// an encoded superposition when Collided is set without Invalid.
	Out *noc.Flit
	// Serviced is the input whose presentation was consumed (its buffer
	// slot freed), or -1. Under a productive collision this is the
	// arbitration winner; uncontested, it is the sole traverser.
	Serviced int
	// Granted is the input that won arbitration this cycle, or -1.
	Granted int
	// flags holds the collision set in its low 32 bits and the dec* bits
	// above them.
	flags uint64
}

const (
	decInvalid uint64 = 1 << (32 + iota)
	decCollided
	decArbitrated
	decStalled
)

// Invalid reports a multi-flit abort: the channel was driven with an
// indeterminate value that the receiver discards (§2.7).
func (d Decision) Invalid() bool { return d.flags&decInvalid != 0 }

// Collided reports >= 2 inputs traversing the XOR switch together.
func (d Decision) Collided() bool { return d.flags&decCollided != 0 }

// Colliders is the number of inputs traversing together when Collided (the
// contention fan-in of §3.2), 0 otherwise. Observability data for the probe
// layer; the router's behavior never depends on it.
func (d Decision) Colliders() int { return bits.OnesCount32(uint32(d.flags)) }

// ColliderMask is the input set of a productive collision (Collided set,
// Invalid clear), 0 otherwise. The router uses it to mark each collider's
// offer as absorbed into the encoded output (arena lifetime tracking).
func (d Decision) ColliderMask() uint32 {
	if d.Invalid() {
		return 0
	}
	return uint32(d.flags)
}

// Arbitrated reports that the arbiter evaluated a non-empty request set (for
// energy accounting).
func (d Decision) Arbitrated() bool { return d.flags&decArbitrated != 0 }

// Stalled reports the output was blocked by exhausted credits.
func (d Decision) Stalled() bool { return d.flags&decStalled != 0 }

// MaxInputs is the widest switch an OutputControl can decide for: its masks
// are 32-bit words.
const MaxInputs = 32

// OutputControl is the per-output arbitration and masking logic of §2.6
// plus the wormhole output lock that keeps multi-flit packets contiguous.
// Decide is compute-phase (it stages the next masks); Commit applies them.
type OutputControl struct {
	// The control block is embedded by value in the NoX router's per-port
	// record; its fields are as narrow as the radix bound (32 inputs) allows,
	// the masks first because every Decide reads them.
	switchMask uint32
	arbMask    uint32
	// staged next state
	nextSwitchMask uint32
	nextArbMask    uint32
	all            uint32

	mode          Mode
	nextMode      Mode
	lockOwner     int8 // input holding the output through a multi-flit packet; -1 if none
	nextLockOwner int8

	// lenient tolerates an orphan multi-flit body (its earlier flits were
	// lost to an injected fault) by traversing it and engaging the lock
	// instead of panicking; armed by fault-injection runs.
	lenient bool
	n       uint8

	// rr is the default round-robin arbiter, held by value; arb is the
	// arbiter in use and points at rr unless Init was handed another.
	rr  arbiter.RoundRobin
	arb arbiter.Arbiter

	// arena pools the encoded superpositions this output creates.
	arena *noc.Arena
}

// NewOutputControl returns control logic for one output fed by n inputs,
// starting in Recovery mode with all inputs enabled.
func NewOutputControl(n int, arb arbiter.Arbiter) *OutputControl {
	o := &OutputControl{}
	o.Init(n, arb, nil, nil)
	return o
}

// Init initializes a zero OutputControl in place — the slab-construction
// form. A nil arb selects the round-robin arbiter the control block carries
// by value; a nil arena falls back to heap-allocated superpositions.
// colliders is accepted for the callers written against the earlier form and
// is not used: the constituents of a collision are gathered on the stack (see
// superimpose).
func (o *OutputControl) Init(n int, arb arbiter.Arbiter, arena *noc.Arena, colliders []*noc.Flit) {
	if n <= 0 || n > MaxInputs {
		panic("core: output control width must be in [1,32]")
	}
	all := uint32(uint64(1)<<uint(n) - 1)
	*o = OutputControl{
		n: uint8(n), all: all,
		mode: Recovery, switchMask: all, arbMask: all, lockOwner: -1,
		arena: arena,
	}
	if arb == nil {
		o.rr.Init(n)
		arb = &o.rr
	}
	if arb.Width() != n {
		panic("core: arbiter width mismatch")
	}
	o.arb = arb
}

// Mode returns the current operating mode.
func (o *OutputControl) Mode() Mode { return o.mode }

// Masks returns the current switch and arbitration masks.
func (o *OutputControl) Masks() (switchMask, arbMask uint32) {
	return o.switchMask, o.arbMask
}

// Locked returns the input transmitting a multi-flit packet through this
// output, or -1.
func (o *OutputControl) Locked() int { return int(o.lockOwner) }

// StagedMode returns the mode staged by this cycle's Decide (applied at the
// coming Commit). The router's protocol checker uses it to assert that a
// multi-flit abort forces Scheduled mode (§2.7).
func (o *OutputControl) StagedMode() Mode { return o.nextMode }

// SetLenient selects how the control logic reacts to an orphan multi-flit
// body flit (its head was lost upstream to an injected fault): lenient
// outputs forward it under the wormhole lock as if the lock were already
// held, non-lenient ones panic.
func (o *OutputControl) SetLenient(on bool) { o.lenient = on }

// Idle reports the control logic is in its rest state: Recovery mode with
// every input enabled and no wormhole lock. An output whose inputs have all
// drained reaches this state one cycle after its last traversal (the empty
// Decide re-arms the masks), after which skipping its evaluation is
// unobservable — the quiescence condition internal/router checks.
func (o *OutputControl) Idle() bool {
	return o.mode == Recovery && o.switchMask == o.all && o.arbMask == o.all && o.lockOwner < 0
}

// Reset forces the control logic back to its rest state (Recovery mode,
// every input enabled, no wormhole lock), staged state included. Used by
// reconfiguration epochs after a hard fault, where the input ports feeding
// this output were flushed and any in-progress chain or wormhole is gone.
func (o *OutputControl) Reset() {
	o.mode, o.switchMask, o.arbMask, o.lockOwner = Recovery, o.all, o.all, -1
	o.hold()
}

// hold stages the current state unchanged.
func (o *OutputControl) hold() {
	o.nextMode, o.nextSwitchMask, o.nextArbMask, o.nextLockOwner =
		o.mode, o.switchMask, o.arbMask, o.lockOwner
}

// stage records the next-cycle state.
func (o *OutputControl) stage(m Mode, sw, ar uint32, lock int) {
	o.nextMode, o.nextSwitchMask, o.nextArbMask, o.nextLockOwner = m, sw, ar, int8(lock)
}

// Commit applies the staged state. Decide must have run this cycle.
func (o *OutputControl) Commit() {
	o.mode, o.switchMask, o.arbMask, o.lockOwner =
		o.nextMode, o.nextSwitchMask, o.nextArbMask, o.nextLockOwner
}

// Decide evaluates one cycle for this output. offers[i] is the flit input i
// presents to this output (nil if input i is idle or requesting another
// output), one entry per input of the switch; creditOK reports downstream
// buffer availability. The returned decision tells the router what to drive
// and which input to service. Decide reads each offer's routing header off
// the flit; DecideFor takes it from the caller. The routers call DecideFor;
// the benchmark rigs under benchmark/ are Decide's one non-test caller.
//
// The rules implemented here are the paper's §2.6/§2.7 behavior:
//
//   - Recovery, no contention: the sole enabled requester passes unmodified
//     and is serviced; a (redundant) grant is produced in parallel. Masks
//     re-enable all inputs.
//   - Recovery, contention among single-flit packets: the output drives the
//     XOR of the colliders, marked encoded; the grant winner is serviced
//     (its buffer freed); next masks enable only the losers. If exactly one
//     loser remains the logic transitions to Scheduled; if none would
//     remain, all inputs are re-enabled.
//   - Contention involving a multi-flit packet: abort. The channel carries
//     an invalid value this cycle, nobody is serviced, and the logic
//     transitions to Scheduled with the grant winner as the sole enabled
//     input.
//   - Scheduled: the sole switch-enabled input traverses uncontested; all
//     other inputs arbitrate, and a grant pre-schedules next cycle's
//     traverser. No grant sends the logic back to Recovery, all enabled.
//   - A traversing multi-flit head engages the output lock: until its tail
//     passes, only continuation flits traverse and no arbitration winners
//     are produced.
//   - Exhausted credits stall the output with all state held, preserving
//     chain integrity.
func (o *OutputControl) Decide(offers []*noc.Flit, creditOK bool) Decision {
	var reqMask uint32
	var hdr [MaxInputs]noc.Header
	for i, f := range offers {
		if f != nil {
			reqMask |= 1 << i
			hdr[i] = f.Header().Route(f.OutPort)
		}
	}
	return o.DecideFor(offers, hdr[:], reqMask, creditOK)
}

// DecideFor is Decide for a switch that keeps one vector of presentations
// for all of its outputs: offers[i] is whatever input i presents this cycle,
// to any output, hdr[i] its routing header, and reqMask has a bit per input
// whose presentation is routed to this one. Entries outside reqMask are not
// looked at, so the router builds no per-output row. The wormhole lock and
// the abort rule read the head, tail and multi-flit bits from hdr; a flit is
// read only when a collision superimposes it.
func (o *OutputControl) DecideFor(offers []*noc.Flit, hdr []noc.Header, reqMask uint32, creditOK bool) Decision {
	if len(offers) < int(o.n) || len(hdr) < int(o.n) || reqMask&^o.all != 0 {
		panic("core: offers narrower than the switch, or a request from beyond it")
	}
	d := Decision{Serviced: -1, Granted: -1}

	if reqMask == 0 {
		// Idle: with no requests and no lock, re-arm Recovery mode with all
		// inputs enabled ("if ... no grants are generated, the masks are
		// instead set to enable all inputs once again").
		if o.lockOwner < 0 {
			o.stage(Recovery, o.all, o.all, -1)
		} else {
			o.hold()
		}
		return d
	}

	if !creditOK {
		d.flags |= decStalled
		o.hold()
		return d
	}

	// Output locked to a multi-flit packet in progress: only its
	// continuation flits traverse and no arbitration winners are produced
	// "until the tail flit has passed" (§2.7). At the tail cycle the
	// parallel arbiter resumes: because the arbitration mask covers inputs
	// inhibited from the switch, a waiting input can be pre-scheduled for
	// the very next cycle — the asymmetry that makes NoX aborts
	// "significantly less frequent than in purely speculative
	// architectures".
	if o.lockOwner >= 0 {
		if reqMask&(1<<uint(o.lockOwner)) == 0 {
			// Upstream bubble inside the packet.
			o.hold()
			return d
		}
		d.Out = offers[o.lockOwner]
		d.Serviced = int(o.lockOwner)
		if hdr[o.lockOwner].Tail() {
			a := reqMask & o.arbMask &^ (1 << o.lockOwner)
			o.grantAndScheduleNext(a, &d)
		} else {
			o.hold()
		}
		return d
	}

	s := reqMask & o.switchMask
	a := reqMask & o.arbMask

	switch bits.OnesCount32(s) {
	case 0:
		// Requests exist but all are inhibited (new arrivals during a
		// Recovery chain, or an idle pre-scheduled input in Scheduled
		// mode). A collision loser or a pre-scheduled input presents until
		// it is serviced, so the protocol gets here only through a
		// condemned decode register: a lenient port whose chain failed to
		// decode under an injected fault presents nothing until its commit
		// discards the register (InputPort.presented). In Scheduled mode
		// arbitration still runs so a waiting input can be scheduled; in
		// Recovery the masks hold to protect the chain.
		if o.mode == Scheduled {
			o.grantAndScheduleNext(a, &d)
		} else {
			o.hold()
		}
		return d

	case 1:
		i := bits.TrailingZeros32(s)
		h := hdr[i]
		d.Out = offers[i]
		d.Serviced = i
		if h.MultiFlit() {
			// A multi-flit head traverses uncontested; engage the lock and
			// suppress grants until the tail passes. A body here is an
			// orphan — its head was lost upstream — which only an injected
			// fault can produce: lenient outputs forward it under the lock
			// (an orphan tail passes without engaging it) so the rest of
			// the packet drains instead of wedging.
			if !h.Head() && !o.lenient {
				panic("core: multi-flit body traversal without lock")
			}
			if !h.Tail() {
				o.stage(o.mode, o.switchMask, o.arbMask, i)
				return d
			}
		}
		if o.mode == Scheduled {
			o.grantAndScheduleNext(a, &d)
		} else {
			// Recovery, uncontested: the parallel arbiter still produces a
			// (redundant) grant; removing the winner would inhibit every
			// input, so all are re-enabled (Fig. 2, cycle 0).
			if a != 0 {
				g, _ := o.arb.Grant(a)
				d.Granted = g
				d.flags |= decArbitrated
			}
			o.stage(Recovery, o.all, o.all, -1)
		}
		return d

	default:
		// Contention within the XOR switch. Only possible in Recovery mode
		// (the Scheduled switch mask is one-hot), where arbMask equals
		// switchMask, so the arbiter decides among exactly the colliders.
		if o.mode != Recovery {
			panic("core: collision in Scheduled mode")
		}
		d.flags |= decCollided | uint64(s)

		multi := false
		for m := s; m != 0; m &= m - 1 {
			if hdr[bits.TrailingZeros32(m)].MultiFlit() {
				multi = true
				break
			}
		}

		g, ok := o.arb.Grant(a)
		if !ok {
			panic("core: collision without arbitration candidates")
		}
		if s&(1<<g) == 0 {
			panic(fmt.Sprintf("core: grant %d outside collision set %b", g, s))
		}
		d.Granted = g
		d.flags |= decArbitrated

		if multi {
			// Abort (§2.7): indeterminate value on the channel, nobody
			// serviced, immediate transition to Scheduled mode with the
			// winner as sole traverser next cycle.
			d.flags |= decInvalid
			o.stage(Scheduled, 1<<g, o.all&^(1<<g), -1)
			return d
		}

		// Productive collision: superimpose the colliders, service the
		// winner, and narrow the masks to the losers.
		d.Out = o.superimpose(offers, hdr, s)
		d.Serviced = g

		next := s &^ (1 << g)
		switch bits.OnesCount32(next) {
		case 0:
			o.stage(Recovery, o.all, o.all, -1)
		case 1:
			o.stage(Scheduled, next, o.all&^next, -1)
		default:
			o.stage(Recovery, next, next, -1)
		}
		return d
	}
}

// superimpose encodes the offers of the input set s into one wire flit. The
// gather scratch is on this goroutine's stack (Encode copies the set into the
// pooled constituent slice), so it costs no per-output storage and two shards
// never share it; the function is kept out of line so that only a collision
// pays for clearing that scratch, not every Decide.
//
// Each constituent's lookahead port is written into it here: a snapshot
// records a superposition's constituents with their ports (Flit.OutPort), and
// the winner among them is held by no input port after this cycle.
//
//go:noinline
func (o *OutputControl) superimpose(offers []*noc.Flit, hdr []noc.Header, s uint32) *noc.Flit {
	var gather [MaxInputs]*noc.Flit
	k := 0
	for m := s; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		f := offers[i]
		f.OutPort = hdr[i].Port()
		gather[k] = f
		k++
	}
	return o.arena.Encode(gather[:k])
}

// grantAndScheduleNext runs Scheduled-mode arbitration: a grant becomes the
// sole switch-enabled input next cycle; no grant falls back to Recovery
// with everything enabled.
func (o *OutputControl) grantAndScheduleNext(a uint32, d *Decision) {
	if a != 0 {
		g, _ := o.arb.Grant(a)
		d.Granted = g
		d.flags |= decArbitrated
		o.stage(Scheduled, 1<<g, o.all&^(1<<g), -1)
		return
	}
	o.stage(Recovery, o.all, o.all, -1)
}
