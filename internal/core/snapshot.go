package core

import (
	"fmt"
	"math/bits"

	"repro/internal/snapshot/codec"
)

// This file implements checkpointing for the two §2.4/§2.6 building blocks.
// Only state that persists between kernel steps is captured: everything the
// two-phase protocol stages during a cycle (offer caches, staged services,
// staged masks, poison) is dead by the time a step completes, which is the
// only point a snapshot is taken.

// SaveState serializes the port's persistent state: the buffered flit queue
// in order and the decode register.
func (p *InputPort) SaveState(e *codec.Encoder) {
	e.Int(p.fifo.Len())
	for i := 0; i < p.fifo.Len(); i++ {
		e.Flit(p.fifo.At(i))
	}
	e.Flit(p.reg)
}

// RestoreState loads state saved by SaveState into a freshly constructed
// (empty) port. The flits arrive already carrying their lookahead output
// ports, so no re-routing happens here; instead every unencoded flit's port
// is checked against outputs, the mask of output ports the restoring router
// can actually drive — an image naming any other port would be accepted here
// and panic at the first step. The decode register holds superpositions
// only. Violations return codec.ErrCorrupt.
func (p *InputPort) RestoreState(d *codec.Decoder, outputs uint32) error {
	n := d.Len(p.fifo.Cap())
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		f := d.QueuedFlit()
		if err := d.Err(); err != nil {
			return err
		}
		if f == nil {
			return fmt.Errorf("%w: nil flit in input-port queue", codec.ErrCorrupt)
		}
		if !f.Encoded && outputs>>uint(f.OutPort)&1 == 0 {
			return fmt.Errorf("%w: buffered flit routed to output %d, not one of %#b", codec.ErrCorrupt, f.OutPort, outputs)
		}
		p.fifo.Push(f)
	}
	p.reg = d.QueuedFlit()
	if p.reg != nil && !p.reg.Encoded {
		return fmt.Errorf("%w: unencoded flit in the decode register", codec.ErrCorrupt)
	}
	return d.Err()
}

// SaveState serializes the output logic's persistent state: the §2.6 FSM
// (mode, switch and arbitration masks), the wormhole lock, and the arbiter's
// priority state. A custom arbiter implementation makes the save fail with
// arbiter.ErrUnsupported.
func (o *OutputControl) SaveState(e *codec.Encoder) error {
	e.Int(int(o.mode))
	e.U64(uint64(o.switchMask))
	e.U64(uint64(o.arbMask))
	e.Int(int(o.lockOwner))
	return e.Arbiter(o.arb)
}

// RestoreState loads state saved by SaveState into a freshly constructed
// output control of the same width and arbiter type.
func (o *OutputControl) RestoreState(d *codec.Decoder) error {
	mode := d.Int()
	sw := d.U64()
	ar := d.U64()
	lock := d.PortIndex(int(o.n))
	if err := d.Err(); err != nil {
		return err
	}
	if mode != int(Recovery) && mode != int(Scheduled) {
		return fmt.Errorf("%w: output mode %d", codec.ErrCorrupt, mode)
	}
	if sw&^uint64(o.all) != 0 || ar&^uint64(o.all) != 0 {
		return fmt.Errorf("%w: output masks %#x/%#x exceed width %d", codec.ErrCorrupt, sw, ar, o.n)
	}
	// The two mask shapes Decide ever stages (see there); any other pair
	// reaches one of its protocol panics as soon as two inputs request.
	if one := bits.OnesCount64(sw) == 1; mode == int(Recovery) && sw != ar ||
		mode == int(Scheduled) && (!one || ar != uint64(o.all)&^sw) {
		return fmt.Errorf("%w: output masks %#x/%#x do not fit mode %d", codec.ErrCorrupt, sw, ar, mode)
	}
	if err := d.Arbiter(o.arb); err != nil {
		return err
	}
	o.mode, o.switchMask, o.arbMask, o.lockOwner = Mode(mode), uint32(sw), uint32(ar), int8(lock)
	return nil
}
