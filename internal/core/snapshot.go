package core

import (
	"fmt"
	"math/bits"

	"repro/internal/noc"
	"repro/internal/snapshot/codec"
)

// This file implements checkpointing for the two §2.4/§2.6 building blocks.
// Only state that persists between kernel steps is captured: everything the
// two-phase protocol stages during a cycle (offer caches, staged services,
// staged masks, poison) is dead by the time a step completes, which is the
// only point a snapshot is taken.

// SaveState serializes the port's persistent state: the buffered flit queue
// in order and the decode register.
//
// The image records a buffered flit's lookahead port in the flit
// (Flit.OutPort), which the datapath does not keep: the port copies each
// flit's port in from its header first, before writing any, as a
// superposition queued ahead of its own constituents writes them.
func (p *InputPort) SaveState(e *codec.Encoder) {
	n := p.fifo.Len()
	for k := 0; k < n; k++ {
		if h := p.headerAt(k); !h.Encoded() {
			p.fifo.At(k).OutPort = h.Port()
		}
	}
	e.Int(n)
	for k := 0; k < n; k++ {
		e.Flit(p.fifo.At(k))
	}
	e.Flit(p.reg)
}

// RestoreState loads state saved by SaveState into a freshly constructed
// (empty) port. The flits arrive already carrying their lookahead output
// ports, so no re-routing happens here: each enters the header mirror as the
// image names it. Every unencoded flit's port is checked against outputs, the
// mask of output ports the restoring router can actually drive — an image
// naming any other port would be accepted here and panic at the first step.
// The decode register holds superpositions only. Violations return
// codec.ErrCorrupt.
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
		if !f.Encoded && uint32(f.Dst) > uint32(noc.MaxDst) {
			return fmt.Errorf("%w: buffered flit to destination %d", codec.ErrCorrupt, f.Dst)
		}
		if !f.Encoded && outputs>>uint(f.OutPort)&1 == 0 {
			return fmt.Errorf("%w: buffered flit routed to output %d, not one of %#b", codec.ErrCorrupt, f.OutPort, outputs)
		}
		if i := p.fifo.Push(f); p.hdr != nil {
			p.hdr[i] = f.Header().Route(f.OutPort)
		}
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

// Audit checks the header mirror against the flits it mirrors: every
// buffered flit's kept header must be the one its own fields give, and an
// unencoded flit's lookahead port one of outputs. It returns the first
// disagreement, nil on a port without a mirror.
func (p *InputPort) Audit(outputs uint32) error {
	if p.hdr == nil {
		return nil
	}
	for k := 0; k < p.fifo.Len(); k++ {
		f, h := p.fifo.At(k), p.hdr[p.fifo.Index(k)]
		if h.Wire() != f.Header() || !h.Encoded() && outputs>>uint(h.Port())&1 == 0 {
			return fmt.Errorf("buffered flit %d (%v) kept with header %#x, its own is %#x, outputs %#b", k, f, uint32(h), uint32(f.Header()), outputs)
		}
	}
	return nil
}
