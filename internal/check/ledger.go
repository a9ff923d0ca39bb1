package check

import "slices"

// Ledger is the checker's complete serializable state, exported so the
// snapshot layer (which owns the wire format — this package stays
// dependency-free) can checkpoint an armed checker mid-run and restore it
// into a fresh one. The observer hook is deliberately not part of the
// ledger: it is wiring, re-installed by whoever arms the restored run.
type Ledger struct {
	Violations []Violation
	Truncated  int64
	Counts     [NumKinds]int64
	// Inflight maps packet id to inject cycle for packets the delivery
	// oracle has not yet seen retired.
	Inflight      map[uint64]int64
	Injected      int64
	Delivered     int64
	Undeliverable int64
	Leaky         bool
	Finalized     bool
}

// Ledger returns a deep copy of the checker's current state. Violations come
// out in canonical order (compareViolations), so the ledger of a sharded run
// does not depend on the order its workers reported them in, and a restored
// checker re-saves byte-identically. Nil-safe: a nil checker returns a zero
// ledger.
func (c *Checker) Ledger() Ledger {
	if c == nil {
		return Ledger{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	l := Ledger{
		Violations:    append([]Violation(nil), c.violations...),
		Truncated:     c.truncated,
		Counts:        c.counts,
		Inflight:      make(map[uint64]int64, len(c.inflight)),
		Injected:      c.injected,
		Delivered:     c.delivered,
		Undeliverable: c.undeliverable,
		Leaky:         c.leaky,
		Finalized:     c.finalized,
	}
	for id, cyc := range c.inflight {
		l.Inflight[id] = cyc
	}
	return l
}

// RestoreLedger overwrites the checker's state with a previously captured
// ledger (deep-copied; the caller keeps ownership of l). The violations are
// put in canonical order: an image written before the checker kept them so
// holds them in arrival order. The checker's armed families, violation cap,
// and observer are left as configured.
func (c *Checker) RestoreLedger(l Ledger) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations[:0], l.Violations...)
	slices.SortStableFunc(c.violations, compareViolations)
	c.truncated = l.Truncated
	c.counts = l.Counts
	c.inflight = make(map[uint64]int64, len(l.Inflight))
	for id, cyc := range l.Inflight {
		c.inflight[id] = cyc
	}
	c.injected = l.Injected
	c.delivered = l.Delivered
	c.undeliverable = l.Undeliverable
	c.leaky = l.Leaky
	c.finalized = l.Finalized
}
