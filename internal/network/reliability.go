package network

import (
	"fmt"
	"slices"

	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/snapshot/codec"
)

// End-to-end retransmission: the network-interface layer's answer to
// permanent faults. Every injected packet opens a retransmission entry at
// its source; delivery schedules an acknowledgment whose latency models the
// reverse route. A packet whose ack misses its deadline is re-enqueued at
// the source (the destination suppresses duplicates by sequence identity),
// with exponential cycle-domain backoff and a bounded retry budget — a
// packet that exhausts it is retired as undeliverable, so drains terminate
// and the delivery oracle accounts it rather than reporting a loss.
//
// All retransmission state lives on the stepping goroutine: entries are
// opened in InjectAs, acks armed in the network's deliver (serial
// commit walk or sharded epilogue, both interface-ordered), and timeouts
// processed by an end-of-cycle observer popping a deterministic
// (cycle, packet-ID) min-heap. Serial and sharded execution therefore
// retransmit identically, byte for byte. With Retransmit nil the
// hot path pays a single pointer test.

// RetransmitConfig arms end-to-end retransmission at the network interfaces.
type RetransmitConfig struct {
	// Timeout is the base ack deadline in cycles, measured from the cycle
	// the attempt's head flit enters the network; attempt k waits
	// Timeout << k. Must be at least 1; generous values avoid spurious
	// retransmissions under congestion.
	Timeout int64
	// Retries bounds re-sends per packet (0 = give up at the first
	// timeout). A packet that times out Retries+1 times is retired as
	// undeliverable.
	Retries int
}

// relEntry tracks one unacknowledged packet at its source. Entries live in
// the map by value: one per injected packet, so a pointer each would be the
// reliability layer's largest allocation.
type relEntry struct {
	p        *noc.Packet
	attempts int   // re-sends performed so far
	deadline int64 // authoritative next timeout-action cycle (stale heap events are dropped)
	ackAt    int64 // ack arrival cycle, -1 until delivered
	sentAt   int64 // cycle the current attempt was (re-)enqueued at the source
}

// relEvent is one scheduled heap entry; ties on when break by packet ID so
// the processing order is a pure function of simulation state.
type relEvent struct {
	when int64
	id   uint64
}

func (a relEvent) less(b relEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.id < b.id
}

type relState struct {
	cfg     RetransmitConfig
	entries map[uint64]relEntry
	heap    []relEvent

	retransmits int64 // re-sends performed
	acked       int64 // entries closed by ack arrival
	ackLost     int64 // delivered, but the reverse path was unreachable
	exhausted   int64 // retired undeliverable after the full retry budget
}

func newRelState(cfg RetransmitConfig) *relState {
	return &relState{cfg: cfg, entries: make(map[uint64]relEntry)}
}

// backoff returns the ack deadline distance for attempt k: Timeout << k,
// shift-capped so pathological retry budgets cannot overflow.
func (r *relState) backoff(attempts int) int64 {
	if attempts > 30 {
		attempts = 30
	}
	return r.cfg.Timeout << uint(attempts)
}

func (r *relState) push(ev relEvent) {
	r.heap = append(r.heap, ev)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.less(r.heap[parent]) {
			break
		}
		r.heap[i] = r.heap[parent]
		i = parent
	}
	r.heap[i] = ev
}

func (r *relState) pop() relEvent {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	for i := 0; ; {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < last && r.heap[l].less(r.heap[smallest]) {
			smallest = l
		}
		if rt < last && r.heap[rt].less(r.heap[smallest]) {
			smallest = rt
		}
		if smallest == i {
			break
		}
		r.heap[i], r.heap[smallest] = r.heap[smallest], r.heap[i]
		i = smallest
	}
	return top
}

// nextEvent returns the earliest scheduled event cycle, ok=false when none.
func (r *relState) nextEvent() (int64, bool) {
	if len(r.heap) == 0 {
		return 0, false
	}
	return r.heap[0].when, true
}

// relArm opens the retransmission entry for a freshly injected packet.
func (n *Network) relArm(p *noc.Packet, cycle int64) {
	r := n.rel
	e := relEntry{p: p, deadline: cycle + r.cfg.Timeout, ackAt: -1, sentAt: cycle}
	r.entries[p.ID] = e
	r.push(relEvent{e.deadline, p.ID})
}

// relDelivered schedules the acknowledgment for a delivered packet: the ack
// travels the reverse route, so its latency is the reverse path length under
// the route table in force at delivery. An unreachable reverse path (the
// damage is asymmetric only through dead routers' core attachments — rare)
// leaves ackAt unset; the source closes the entry at its next deadline.
func (n *Network) relDelivered(p *noc.Packet, cycle int64) {
	r := n.rel
	e, open := r.entries[p.ID]
	if !open || e.ackAt >= 0 {
		return
	}
	if rev := n.routes.PathLength(p.Dst, p.Src); rev >= 0 {
		e.ackAt = cycle + int64(rev)
		r.entries[p.ID] = e
		r.push(relEvent{e.ackAt, p.ID})
	}
}

// relTick is the retransmission observer, processing every event due this
// cycle. It runs after the reconfiguration observer, so a timeout decided
// in the same cycle as an epoch already sees the post-epoch route table.
func (n *Network) relTick(cycle int64, active int) {
	r := n.rel
	for len(r.heap) > 0 && r.heap[0].when <= cycle {
		ev := r.pop()
		e, open := r.entries[ev.id]
		if !open {
			continue // entry already closed; stale event
		}
		if ev.when == e.ackAt {
			r.acked++
			delete(r.entries, ev.id)
			continue
		}
		if ev.when != e.deadline {
			continue // deadline was re-armed; a later event carries it
		}
		p := e.p
		if p.DeliverCycle >= 0 {
			if e.ackAt >= 0 {
				continue // ack en route; its own event closes the entry
			}
			r.ackLost++
			delete(r.entries, ev.id)
			continue
		}
		if !n.routes.Reachable(p.Src, p.Dst) {
			n.markUndeliverable(p, cycle) // closes the entry
			continue
		}
		ni := n.nis[p.Src]
		if ni.cur == p || p.InjectCycle < e.sentAt {
			// Still queued at the source, or mid-transmission (possibly
			// stalled on backpressure): nothing on the wire has timed out.
			// Re-arm without consuming a retry.
			e.deadline = cycle + r.cfg.Timeout
			r.entries[ev.id] = e
			r.push(relEvent{e.deadline, ev.id})
			continue
		}
		if armAt := p.InjectCycle + r.backoff(e.attempts); cycle < armAt {
			// The attempt launched after this deadline was armed; restart
			// the timer from the head flit's actual entry into the network.
			e.deadline = armAt
			r.entries[ev.id] = e
			r.push(relEvent{armAt, ev.id})
			continue
		}
		// Genuine timeout: the attempt's window elapsed with no ack.
		e.attempts++
		if e.attempts > r.cfg.Retries {
			r.exhausted++
			n.markUndeliverable(p, cycle)
			continue
		}
		r.retransmits++
		e.sentAt = cycle
		e.deadline = cycle + r.backoff(e.attempts)
		r.entries[ev.id] = e
		r.push(relEvent{e.deadline, ev.id})
		ni.enqueue(p)
		n.kernel.Wake(n.niHandle[p.Src])
	}
}

// retireUnreachable retires (in ascending packet-ID order) every
// retransmission entry whose undelivered packet can no longer reach its
// destination under the new table. Called by the reconfiguration epoch.
func (r *relState) retireUnreachable(n *Network, tbl *routing.Table, cycle int64) {
	var ids []uint64
	for id, e := range r.entries {
		if e.p.DeliverCycle == -1 && !tbl.Reachable(e.p.Src, e.p.Dst) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	slices.Sort(ids)
	for _, id := range ids {
		n.markUndeliverable(r.entries[id].p, cycle)
	}
}

// Retransmits returns how many packet re-sends the reliability layer
// performed (0 when retransmission is disarmed).
func (n *Network) Retransmits() int64 {
	if n.rel == nil {
		return 0
	}
	return n.rel.retransmits
}

// RetransmitStats returns the reliability layer's counters: re-sends,
// ack-closed entries, delivered-but-ack-lost entries, and packets retired
// after exhausting the retry budget. All zero when disarmed.
func (n *Network) RetransmitStats() (retransmits, acked, ackLost, exhausted int64) {
	if n.rel == nil {
		return 0, 0, 0, 0
	}
	return n.rel.retransmits, n.rel.acked, n.rel.ackLost, n.rel.exhausted
}

// DupSuppressed returns how many duplicate flits the destination interfaces
// swallowed by sequence identity (spurious retransmissions overtaken by the
// original, or stragglers of retired packets).
func (n *Network) DupSuppressed() int64 {
	var total int64
	for _, ni := range n.nis {
		total += ni.dupes
	}
	return total
}

// saveRel serializes the retransmission state. Entries are written in
// ascending packet-ID order; packets intern through the encoder, so an
// entry whose packet also sits in a source queue shares identity on
// restore. The event heap is not saved — restore reconstructs the live
// events from the entries (stale heap entries carry no information).
func (r *relState) save(e *codec.Encoder) {
	ids := make([]uint64, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.Int(len(ids))
	for _, id := range ids {
		en := r.entries[id]
		e.Packet(en.p)
		e.Int(en.attempts)
		e.I64(en.deadline)
		e.I64(en.ackAt)
		e.I64(en.sentAt)
	}
	e.I64(r.retransmits)
	e.I64(r.acked)
	e.I64(r.ackLost)
	e.I64(r.exhausted)
}

func (r *relState) restore(d *codec.Decoder) error {
	count := d.Len(1 << 24)
	if err := d.Err(); err != nil {
		return err
	}
	r.entries = make(map[uint64]relEntry, count)
	r.heap = r.heap[:0]
	for i := 0; i < count; i++ {
		p := d.Packet()
		attempts := d.Int()
		deadline := d.I64()
		ackAt := d.I64()
		sentAt := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("%w: nil packet in retransmission entry", codec.ErrCorrupt)
		}
		if attempts < 0 || deadline < 0 || ackAt < -1 || sentAt < 0 {
			return fmt.Errorf("%w: retransmission entry for packet %d: attempts=%d deadline=%d ackAt=%d sentAt=%d",
				codec.ErrCorrupt, p.ID, attempts, deadline, ackAt, sentAt)
		}
		if _, dup := r.entries[p.ID]; dup {
			return fmt.Errorf("%w: duplicate retransmission entry for packet %d", codec.ErrCorrupt, p.ID)
		}
		e := relEntry{p: p, attempts: attempts, deadline: deadline, ackAt: ackAt, sentAt: sentAt}
		r.entries[p.ID] = e
		r.push(relEvent{e.deadline, p.ID})
		if e.ackAt >= 0 {
			r.push(relEvent{e.ackAt, p.ID})
		}
	}
	r.retransmits = d.I64()
	r.acked = d.I64()
	r.ackLost = d.I64()
	r.exhausted = d.I64()
	return d.Err()
}
