package network

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/routing"
	"repro/internal/snapshot/codec"
)

// Checkpointing for the assembled network. SaveState captures every piece of
// between-step persistent state — router queues/FSMs, interface source queues
// and reassembly, link credits, power counters, packet accounting, and the
// invariant checker's ledger — in deterministic order, so saving the same
// network twice yields identical bytes. RestoreState targets a freshly built
// network of the identical structural configuration (internal/snapshot owns
// the version header that validates this) and leaves it ready to Step from
// the saved cycle.

// Config returns the network's normalized configuration (defaults filled).
// The snapshot layer uses it to stamp structural parameters into the header.
func (n *Network) Config() Config { return n.cfg }

// SaveState serializes the network's complete between-step state.
func (n *Network) SaveState(e *codec.Encoder) error {
	e.I64(n.kernel.Cycle())
	e.U64(n.nextPacketID)
	e.I64(n.injected)
	e.I64(n.delivered)
	for _, r := range n.routers {
		if err := r.SaveState(e); err != nil {
			return err
		}
	}
	for _, ni := range n.nis {
		ni.SaveState(e)
	}
	// Channel credits in site order (the only between-step link state:
	// staged flits and staged returns are consumed within their cycle).
	for _, l := range n.links {
		e.Int(l.Credits())
	}
	folded := *n.Counters()
	folded.SaveState(e)
	e.Bool(n.check != nil)
	if n.check != nil {
		saveLedger(e, n.check.Ledger())
	}
	e.I64(n.undeliverable)
	e.I64(n.epochs)
	e.I64(n.lastEpochCycle)
	e.Bool(n.hard != nil)
	e.Bool(n.rel != nil)
	if n.rel != nil {
		n.rel.save(e)
	}
	return nil
}

// arenaOf returns the flit arena owning node's shard (the arena decoded
// flits for that node's components must be materialized from, so per-shard
// accounting stays worker-local after restore).
func (n *Network) arenaOf(node int) *noc.Arena {
	return &n.local[n.shardOfNode[node]].arena
}

// RestoreState loads state saved by SaveState into this freshly constructed
// network, which must have the identical structural configuration (topology,
// concentration, architecture, buffer depths) but may differ in execution
// mode (shard count, lanes, always-active) and instrumentation. On success
// the network's clock stands at the saved cycle with every component awake;
// the active set re-converges within one step. The checker armed state must
// match the snapshot: restoring checker-armed state into an unchecked
// network (or vice versa) fails rather than silently dropping the ledger.
func (n *Network) RestoreState(d *codec.Decoder) error {
	cycle := d.I64()
	nextID := d.U64()
	injected := d.I64()
	delivered := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	if cycle < 0 || injected < 0 || delivered < 0 || delivered > injected {
		return fmt.Errorf("%w: packet accounting %d injected / %d delivered at cycle %d",
			codec.ErrCorrupt, injected, delivered, cycle)
	}
	d.SetCores(n.Cores())
	d.SetPackets(&n.packets)
	for id, r := range n.routers {
		d.SetArena(n.arenaOf(id))
		if err := r.RestoreState(d); err != nil {
			return fmt.Errorf("router %d: %w", id, err)
		}
	}
	for c, ni := range n.nis {
		d.SetArena(ni.arena)
		if err := ni.RestoreState(d); err != nil {
			return fmt.Errorf("interface %d: %w", c, err)
		}
	}
	for i, l := range n.links {
		cr := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if err := l.RestoreCredits(cr); err != nil {
			return fmt.Errorf("%w: link %d: %v", codec.ErrCorrupt, i, err)
		}
	}
	var ctr power.Counters
	if err := ctr.RestoreState(d); err != nil {
		return err
	}
	hasChecker := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasChecker != (n.check != nil) {
		return fmt.Errorf("%w: snapshot checker-armed=%v, restore target=%v",
			codec.ErrUnsupported, hasChecker, n.check != nil)
	}
	if hasChecker {
		ledger, err := restoreLedger(d)
		if err != nil {
			return err
		}
		n.check.RestoreLedger(ledger)
	}
	undeliverable := d.I64()
	epochs := d.I64()
	lastEpoch := d.I64()
	hasHard := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if undeliverable < 0 || delivered+undeliverable > injected {
		return fmt.Errorf("%w: %d undeliverable with %d injected / %d delivered",
			codec.ErrCorrupt, undeliverable, injected, delivered)
	}
	if epochs < 0 || lastEpoch < -1 {
		return fmt.Errorf("%w: %d reconfiguration epochs, last at cycle %d", codec.ErrCorrupt, epochs, lastEpoch)
	}
	if hasHard != (n.hard != nil) {
		return fmt.Errorf("%w: snapshot hard-faults-armed=%v, restore target=%v",
			codec.ErrUnsupported, hasHard, n.hard != nil)
	}
	hasRel := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasRel != (n.rel != nil) {
		return fmt.Errorf("%w: snapshot retransmission-armed=%v, restore target=%v",
			codec.ErrUnsupported, hasRel, n.rel != nil)
	}
	if hasRel {
		if err := n.rel.restore(d); err != nil {
			return err
		}
	}
	// Counters were saved folded; the fold is all any reader observes, so
	// the whole block lands on shard 0.
	for i := range n.local {
		n.local[i].counters = power.Counters{}
	}
	n.local[0].counters = ctr
	n.nextPacketID = nextID
	n.injected = injected
	n.delivered = delivered
	n.undeliverable = undeliverable
	n.epochs = epochs
	n.lastEpochCycle = lastEpoch
	if n.hard != nil {
		// Re-derive the fault-evolution cursors from the restored injector
		// state, then bring the route tables in line with the fault set in
		// force at the saved cycle (past epochs already happened in the
		// saved timeline; the freshly built network still routes fault-free
		// or with the at-construction set).
		sched := n.hard.ScheduledKillCycles()
		k := 0
		for k < len(sched) && sched[k] <= cycle {
			k++
		}
		n.killCursor = k
		fs := n.hard.FaultSet(cycle)
		if key := fs.Key(); key != n.faultKey {
			tbl := routing.SharedFaultTable(n.sys, fs)
			for _, r := range n.routers {
				r.Reroute(tbl)
			}
			n.routes = tbl
			n.faultKey = key
			n.curFaults = fs
		}
	}
	// The network's own hold ends at retirement. A retired packet the image
	// holds — a delivered one an open entry names, an undeliverable one still
	// queued, or one only stale flits reach (an image written before flits
	// carried their header keeps such a packet whole) — was restored as it
	// was saved and stamped into its flits; its slot goes back now unless
	// another owner holds it.
	for _, p := range d.Packets() {
		if p.DeliverCycle != -1 {
			n.packets.Release(p, noc.OwnedByNetwork)
		}
	}
	// Wake everything rather than reconstruct the exact active set: waking a
	// quiet component is unobservable (it re-quiesces after one evaluation),
	// and the set re-converges to the original within a cycle.
	n.kernel.WakeAll()
	n.kernel.SetCycle(cycle)
	return nil
}

// SaveState serializes the interface's between-step state: the pending
// source queue, the packet mid-injection, the sink port, and reassembly
// progress. The delivered-flit stage is always empty between steps.
func (ni *NI) SaveState(e *codec.Encoder) {
	e.Int(ni.queueLen)
	for i := 0; i < ni.queueLen; i++ {
		e.Packet(ni.queued(i))
	}
	e.Packet(ni.cur)
	e.Int(ni.curSeq)
	e.Packet(ni.assembling)
	e.Int(ni.expectSeq)
	ni.sink.SaveState(e)
}

// RestoreState loads state saved by SaveState into this freshly constructed
// interface.
func (ni *NI) RestoreState(d *codec.Decoder) error {
	npend := d.Len(1 << 24)
	if err := d.Err(); err != nil {
		return err
	}
	clear(ni.queue)
	ni.queueHead, ni.queueLen = 0, 0
	for i := 0; i < npend; i++ {
		p := d.Packet()
		if err := d.Err(); err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("%w: nil packet in source queue", codec.ErrCorrupt)
		}
		if p.Holds(noc.OwnedBySource) {
			return fmt.Errorf("%w: packet %d queued twice", codec.ErrCorrupt, p.ID)
		}
		ni.enqueue(p)
	}
	cur := d.Packet()
	curSeq := d.Int()
	assembling := d.Packet()
	expectSeq := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if cur != nil && (curSeq < 0 || curSeq >= cur.Length) {
		return fmt.Errorf("%w: injection progress %d of %d-flit packet", codec.ErrCorrupt, curSeq, cur.Length)
	}
	if assembling != nil && (expectSeq < 0 || expectSeq >= assembling.Length) {
		return fmt.Errorf("%w: reassembly progress %d of %d-flit packet", codec.ErrCorrupt, expectSeq, assembling.Length)
	}
	if cur != nil {
		if cur.Holds(noc.OwnedBySource) {
			return fmt.Errorf("%w: packet %d queued and mid-injection", codec.ErrCorrupt, cur.ID)
		}
		cur.Hold(noc.OwnedBySource)
	}
	if assembling != nil {
		if assembling.Holds(noc.OwnedBySink) {
			return fmt.Errorf("%w: packet %d reassembled twice", codec.ErrCorrupt, assembling.ID)
		}
		assembling.Hold(noc.OwnedBySink)
	}
	ni.cur, ni.curSeq = cur, curSeq
	ni.assembling, ni.expectSeq = assembling, expectSeq
	// Every flit that reached a sink ejects: no output port to hold it to.
	return ni.sink.RestoreState(d, ^uint32(0))
}

// saveLedger writes the invariant checker's state. The in-flight oracle map
// is emitted in ascending packet-ID order so identical checker states always
// produce identical bytes.
func saveLedger(e *codec.Encoder, l check.Ledger) {
	e.Int(len(l.Violations))
	for _, v := range l.Violations {
		e.I64(v.Cycle)
		e.Int(int(v.Kind))
		e.Int(int(v.Node))
		e.Int(int(v.Port))
		e.U64(v.Packet)
		e.String(v.Detail)
	}
	e.I64(l.Truncated)
	for _, c := range l.Counts {
		e.I64(c)
	}
	ids := make([]uint64, 0, len(l.Inflight))
	for id := range l.Inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Int(len(ids))
	for _, id := range ids {
		e.U64(id)
		e.I64(l.Inflight[id])
	}
	e.I64(l.Injected)
	e.I64(l.Delivered)
	e.I64(l.Undeliverable)
	e.Bool(l.Leaky)
	e.Bool(l.Finalized)
}

func restoreLedger(d *codec.Decoder) (check.Ledger, error) {
	var l check.Ledger
	nv := d.Len(1 << 20)
	if err := d.Err(); err != nil {
		return l, err
	}
	l.Violations = make([]check.Violation, 0, nv)
	for i := 0; i < nv; i++ {
		v := check.Violation{
			Cycle:  d.I64(),
			Kind:   check.Kind(d.Int()),
			Node:   int32(d.Int()),
			Port:   int32(d.Int()),
			Packet: d.U64(),
			Detail: d.String(),
		}
		if err := d.Err(); err != nil {
			return l, err
		}
		if v.Kind < 0 || v.Kind >= check.NumKinds {
			return l, fmt.Errorf("%w: violation kind %d", codec.ErrCorrupt, v.Kind)
		}
		l.Violations = append(l.Violations, v)
	}
	l.Truncated = d.I64()
	for i := range l.Counts {
		l.Counts[i] = d.I64()
	}
	ninf := d.Len(1 << 24)
	if err := d.Err(); err != nil {
		return l, err
	}
	l.Inflight = make(map[uint64]int64, ninf)
	for i := 0; i < ninf; i++ {
		id := d.U64()
		cyc := d.I64()
		if err := d.Err(); err != nil {
			return l, err
		}
		if _, dup := l.Inflight[id]; dup {
			return l, fmt.Errorf("%w: duplicate in-flight packet %d", codec.ErrCorrupt, id)
		}
		l.Inflight[id] = cyc
	}
	l.Injected = d.I64()
	l.Delivered = d.I64()
	l.Undeliverable = d.I64()
	l.Leaky = d.Bool()
	l.Finalized = d.Bool()
	return l, d.Err()
}
