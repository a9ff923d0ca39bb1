package router

import (
	"fmt"

	"repro/internal/snapshot/codec"
)

// Checkpointing for the three router implementations. Only between-step
// persistent state is captured: input queues (and the NoX decode registers
// and output FSMs), wormhole locks, speculative reservations, the Spec-Fast
// fairness timestamps, and arbiter priority state. Per-cycle scratch and
// staged actions are dead whenever a step is complete. Restore targets a
// freshly constructed router of the identical configuration.

// SaveState implements Router for the NoX architecture: every input port
// (queue + decode register) and every output's FSM, masks, and arbiter.
func (r *noxRouter) SaveState(e *codec.Encoder) error {
	for i := range r.port {
		r.port[i].in.SaveState(e)
	}
	for i := range r.port {
		if err := r.port[i].ctl.SaveState(e); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState implements Router for the NoX architecture. The dirty masks
// are derived state and are not serialized: they are recomputed from the
// restored ports.
func (r *noxRouter) RestoreState(d *codec.Decoder) error {
	for i := range r.port {
		if err := r.port[i].in.RestoreState(d, r.wired); err != nil {
			return err
		}
	}
	for i := range r.port {
		if err := r.port[i].ctl.RestoreState(d); err != nil {
			return err
		}
	}
	r.inBusy, r.outBusy = r.scanMasks()
	return nil
}

// SaveState implements Router for the speculative architectures: input
// queues, wormhole locks, live reservations with their owning packets, the
// Spec-Fast newly-exposed fairness timestamps, and the allocator arbiters.
func (r *specRouter) SaveState(e *codec.Encoder) error {
	r.saveInputs(e)
	for i := range r.port {
		p := &r.port[i]
		e.I64(p.newlyExposed)
		e.Int(int(p.lock))
		e.Int(int(p.res))
		e.Packet(p.resPkt)
		if err := e.Arbiter(p.arb); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState implements Router for the speculative architectures.
func (r *specRouter) RestoreState(d *codec.Decoder) error {
	n := len(r.port)
	if err := r.restoreInputs(d); err != nil {
		return err
	}
	for i := range r.port {
		p := &r.port[i]
		ne := d.I64()
		lock := d.PortIndex(n)
		res := d.PortIndex(n)
		pkt := d.Packet()
		if err := d.Err(); err != nil {
			return err
		}
		if (res >= 0) != (pkt != nil) {
			return fmt.Errorf("%w: reservation %d with packet %v", codec.ErrCorrupt, res, pkt != nil)
		}
		if (lock >= 0 || res >= 0) && p.out == nil {
			return fmt.Errorf("%w: lock %d / reservation %d on unwired output %d", codec.ErrCorrupt, lock, res, i)
		}
		p.newlyExposed, p.lock, p.res, p.resPkt = ne, int8(lock), int8(res), pkt
		if err := d.Arbiter(p.arb); err != nil {
			return err
		}
	}
	r.locked, r.reserved = r.heldMasks()
	return nil
}

// SaveState implements Router for the non-speculative baseline: input
// queues, wormhole locks, and arbiters.
func (r *nonspecRouter) SaveState(e *codec.Encoder) error {
	r.saveInputs(e)
	for i := range r.port {
		e.Int(int(r.port[i].lock))
		if err := e.Arbiter(r.port[i].arb); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState implements Router for the non-speculative baseline.
func (r *nonspecRouter) RestoreState(d *codec.Decoder) error {
	if err := r.restoreInputs(d); err != nil {
		return err
	}
	for i := range r.port {
		lock := d.PortIndex(len(r.port))
		if err := d.Err(); err != nil {
			return err
		}
		r.port[i].lock = int8(lock)
		if err := d.Arbiter(r.port[i].arb); err != nil {
			return err
		}
	}
	return nil
}
