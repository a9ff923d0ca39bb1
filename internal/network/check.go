package network

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/router"
)

// ErrBadConfig is wrapped by every Config validation failure; user-facing
// tools test for it with errors.Is.
var ErrBadConfig = errors.New("network: invalid configuration")

// ErrBadPacket is wrapped by every injection path's rejection of a malformed
// packet (InjectChecked and InjectAs return it, Inject panics with its
// text).
var ErrBadPacket = errors.New("network: invalid packet")

// ErrNoProgress is wrapped by DrainChecked when the network wedges —
// deadlock, livelock, or drain-limit exhaustion. The error message carries
// the watchdog's full diagnostic dump.
var ErrNoProgress = errors.New("network: no forward progress")

// Validate checks a configuration without building it. Zero values are fine
// (fill applies the defaults); only actively inconsistent settings fail.
func (c Config) Validate() error {
	if c.Topo.Width < 0 || c.Topo.Height < 0 ||
		(c.Topo.Width > 0) != (c.Topo.Height > 0) {
		return fmt.Errorf("%w: topology %dx%d", ErrBadConfig, c.Topo.Width, c.Topo.Height)
	}
	if c.Concentration < 0 {
		return fmt.Errorf("%w: concentration %d negative", ErrBadConfig, c.Concentration)
	}
	if c.Topo.Width > 0 {
		sys := noc.System{Grid: c.Topo, Concentration: max(c.Concentration, 1)}
		if err := sys.Check(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if ports := sys.Ports(); ports > 32 {
			return fmt.Errorf("%w: concentration %d needs radix %d (max 32)", ErrBadConfig, c.Concentration, ports)
		}
	}
	switch c.Arch {
	case router.NonSpec, router.SpecFast, router.SpecAccurate, router.NoX:
	default:
		return fmt.Errorf("%w: unknown architecture %d", ErrBadConfig, int(c.Arch))
	}
	if c.BufferDepth < 0 {
		return fmt.Errorf("%w: buffer depth %d negative", ErrBadConfig, c.BufferDepth)
	}
	if c.SinkDepth < 0 || c.SinkDepth == 1 {
		// Depth 1 is refused rather than supported: a Spec-Fast reservation
		// at a one-slot sink can name a recycled packet slot for a cycle.
		return fmt.Errorf("%w: sink depth %d (0 for the default, or >= 2)", ErrBadConfig, c.SinkDepth)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w: shards %d negative", ErrBadConfig, c.Shards)
	}
	if c.Shards > 1 && (c.Probe != nil || c.Oracle) {
		// Both observe the serial walk: a probe's event order is the serial
		// emission order, and the oracle hashes components around it.
		return fmt.Errorf("%w: a probed or oracle network runs serially, not on %d shards", ErrBadConfig, c.Shards)
	}
	if c.Fault != nil && c.Check == nil {
		// Fault consequences (corrupt decodes, overruns, orphan bodies) are
		// panics unless the checker's lenient paths are armed — and a panic
		// on a sharded worker goroutine is unrecoverable.
		return fmt.Errorf("%w: Fault requires Check (fault consequences must be recorded, not panic)", ErrBadConfig)
	}
	if r := c.Retransmit; r != nil {
		if r.Timeout < 1 {
			return fmt.Errorf("%w: retransmit timeout %d (must be >= 1 cycle)", ErrBadConfig, r.Timeout)
		}
		if r.Retries < 0 {
			return fmt.Errorf("%w: retransmit retries %d negative", ErrBadConfig, r.Retries)
		}
	}
	return nil
}

// Build is the error-returning form of New for configurations assembled
// from user input (CLI flags, spec files): it validates first and returns
// ErrBadConfig-wrapped errors instead of panicking.
func Build(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// InjectChecked is the error-returning form of Inject for endpoints from
// user input: it rejects malformed packets with ErrBadPacket instead of
// panicking.
func (n *Network) InjectChecked(src, dst noc.NodeID, length int, class int) (*noc.Packet, error) {
	p, err := n.InjectAs(n.nextPacketID+1, src, dst, length, class)
	if err == nil {
		n.nextPacketID++
	}
	return p, err
}

// InjectAs is InjectChecked for a caller that numbers packets itself: trace
// replay draws one ID sequence across the class networks of a Multi, whose
// shared checker keys on it. IDs must be unique per network and nonzero. A
// packet whose destination is currently partitioned away by permanent faults
// is refused at the source — counted injected and undeliverable, so
// offered-traffic accounting stays comparable across fault sets — and
// retired before InjectAs returns: the pointer it returns reads scrubbed.
func (n *Network) InjectAs(id uint64, src, dst noc.NodeID, length int, class int) (*noc.Packet, error) {
	if err := n.checkPacket(src, dst, length); err != nil {
		return nil, err
	}
	if id == 0 {
		// A recycled slot reads ID 0 (see noc.Flit.Slot).
		return nil, fmt.Errorf("%w: packet ID 0 is reserved", ErrBadPacket)
	}
	p := n.packets.Get(id, src, dst, length, class, n.Cycle())
	n.injected++
	n.check.OnInject(n.Cycle(), p.ID)
	if n.hard != nil && !n.routes.Reachable(src, dst) {
		n.markUndeliverable(p, n.Cycle())
		return p, nil
	}
	if n.rel != nil {
		n.relArm(p, n.Cycle())
	}
	n.nis[src].enqueue(p)
	// The interface may have gone quiescent; new work re-activates it.
	n.kernel.Wake(n.niHandle[src])
	return p, nil
}

// checkPacket is the one validation every injection path runs: endpoints are
// cores of this network and differ, and the length is positive.
func (n *Network) checkPacket(src, dst noc.NodeID, length int) error {
	cores := noc.NodeID(len(n.nis))
	if src < 0 || src >= cores || dst < 0 || dst >= cores {
		return fmt.Errorf("%w: endpoints %d->%d outside %d-core system", ErrBadPacket, src, dst, cores)
	}
	if src == dst {
		return fmt.Errorf("%w: self-addressed packet at node %d", ErrBadPacket, src)
	}
	if length <= 0 {
		return fmt.Errorf("%w: length %d", ErrBadPacket, length)
	}
	return nil
}

// DrainChecked runs the network without new traffic until every outstanding
// packet is delivered, the cycle budget runs out, or the watchdog trips. On
// a wedge it records a watchdog violation on the armed checker (if any) and
// returns an ErrNoProgress-wrapped error whose message embeds the full
// diagnostic dump. limit <= 0 defaults to 30000 cycles; window <= 0
// defaults to min(limit, 4096) cycles without a delivery.
func (n *Network) DrainChecked(limit, window int64) error {
	if limit <= 0 {
		limit = 30000
	}
	if window <= 0 {
		window = limit
		if window > 4096 {
			window = 4096
		}
	}
	deadline := n.Cycle() + limit
	wd := check.Watchdog{Window: window}
	wd.Reset(n.Cycle(), n.Delivered())
	for n.Outstanding() > 0 {
		if n.Idle() {
			if !n.RecoveryPending() {
				// Quiescent with packets outstanding and no scheduled kill
				// or retransmission timeout still to come: no evaluation can
				// ever deliver them — a true deadlock, reportable
				// immediately. (A partitioned network never reaches this
				// branch: its unreachable packets were retired as
				// undeliverable, so Outstanding already excludes them.)
				return n.wedged(fmt.Sprintf("deadlock: fully quiescent with %d packets outstanding", n.Outstanding()))
			}
			// Quiescent, but recovery machinery is still scheduled: jump to
			// the next event boundary in bulk. Waiting idle for a timeout
			// is not livelock, so the watchdog restarts after the jump.
			if n.FastForwardIdle(deadline-n.Cycle()) == 0 {
				return n.wedged(fmt.Sprintf("drain limit: %d packets outstanding after %d cycles", n.Outstanding(), limit))
			}
			wd.Reset(n.Cycle(), n.Delivered())
			continue
		}
		if n.Cycle() >= deadline {
			return n.wedged(fmt.Sprintf("drain limit: %d packets outstanding after %d cycles", n.Outstanding(), limit))
		}
		n.Step()
		if stalled, tripped := wd.Observe(n.Cycle(), n.Delivered()); tripped {
			return n.wedged(fmt.Sprintf("livelock: no packet delivered for %d cycles, %d outstanding", stalled, n.Outstanding()))
		}
	}
	return nil
}

// wedged records the watchdog trip and packages the diagnostic dump into
// the returned error.
func (n *Network) wedged(msg string) error {
	n.check.Watchdog(n.Cycle(), msg)
	var sb strings.Builder
	n.WriteDiagnostic(&sb)
	return fmt.Errorf("%s: %w\n%s", msg, ErrNoProgress, sb.String())
}

// WriteDiagnostic dumps the network's live state — per-router port states,
// interface queues and reassembly progress, arena occupancy — the forensic
// snapshot attached to every watchdog trip. Routers and interfaces with
// nothing in flight are skipped so the dump stays focused on the wedge.
func (n *Network) WriteDiagnostic(w io.Writer) {
	fmt.Fprintf(w, "network diagnostic: arch=%s topo=%dx%d cycle=%d injected=%d delivered=%d undeliverable=%d outstanding=%d arena=%d\n",
		n.cfg.Arch, n.cfg.Topo.Width, n.cfg.Topo.Height,
		n.Cycle(), n.Injected(), n.Delivered(), n.Undeliverable(), n.Outstanding(), n.ArenaOutstanding())
	if n.hard != nil {
		fmt.Fprintf(w, "  hard faults: epochs=%d last-epoch=%d partitioned-pairs=%d faults=%s\n",
			n.Epochs(), n.LastEpochCycle(), n.PartitionedPairs(), n.curFaults)
	}
	if n.rel != nil {
		rtx, acked, ackLost, exhausted := n.RetransmitStats()
		fmt.Fprintf(w, "  retransmit: entries=%d resends=%d acked=%d ack-lost=%d exhausted=%d dup-suppressed=%d\n",
			len(n.rel.entries), rtx, acked, ackLost, exhausted, n.DupSuppressed())
	}
	var buf []router.PortState
	for id, r := range n.routers {
		buf = r.PortStates(buf[:0])
		busy := false
		for _, ps := range buf {
			if ps.Buffered > 0 || ps.Register || ps.OutLock >= 0 {
				busy = true
				break
			}
		}
		if !busy {
			continue
		}
		coord := n.cfg.Topo.Coord(noc.NodeID(id))
		fmt.Fprintf(w, "  router %d (%d,%d):", id, coord.X, coord.Y)
		for p, ps := range buf {
			if ps.Buffered == 0 && !ps.Register && ps.OutLock < 0 {
				continue
			}
			fmt.Fprintf(w, " p%d{%s}", p, ps)
		}
		fmt.Fprintln(w)
	}
	for _, ni := range n.nis {
		q := ni.QueueLen()
		asm := ni.assembling != nil
		sink := ni.sink.Buffered()
		if q == 0 && !asm && sink == 0 && !ni.sink.RegisterBusy() {
			continue
		}
		fmt.Fprintf(w, "  ni %d: queue=%d sink=%d", ni.node, q, sink)
		if ni.sink.RegisterBusy() {
			fmt.Fprint(w, " reg")
		}
		if ni.cur != nil {
			fmt.Fprintf(w, " injecting=pkt%d.%d", ni.cur.ID, ni.curSeq)
		}
		if asm {
			fmt.Fprintf(w, " assembling=pkt%d want-seq=%d", ni.assembling.ID, ni.expectSeq)
		}
		fmt.Fprintln(w)
	}
	if n.probe != nil {
		fmt.Fprintf(w, "  probe: %d events captured\n", n.probe.EventCount())
	}
}

// Audit proves, between steps, what recycling packets rests on: every holder
// of a packet slot that is not a flit holds the slot it names as one of its
// owners (noc.Owner), so the slot cannot have gone back to the slab under it
// — each queued and mid-injection packet its source interface, each
// reassembly its destination interface, each open retransmission entry its
// packet, whose ID it must still name — and the network holds exactly the
// packets it has not retired. Flits carry their own header and are not
// audited: a stale one is legal. Every router's Audit covers its masks and
// Spec reservations; the delivered-flit stage and the sharded delivery
// mailboxes must be empty. Tests run it after every commit.
func (n *Network) Audit() error {
	for _, r := range n.routers {
		if err := r.Audit(); err != nil {
			return err
		}
	}
	for _, ni := range n.nis {
		for i := 0; i < ni.queueLen; i++ {
			if err := heldBy(ni.queued(i), noc.OwnedBySource); err != nil {
				return fmt.Errorf("interface %d source queue: %w", ni.node, err)
			}
		}
		if ni.cur != nil {
			if err := heldBy(ni.cur, noc.OwnedBySource); err != nil {
				return fmt.Errorf("interface %d injection: %w", ni.node, err)
			}
		}
		if ni.assembling != nil {
			if err := heldBy(ni.assembling, noc.OwnedBySink); err != nil {
				return fmt.Errorf("interface %d reassembly: %w", ni.node, err)
			}
		}
		if ni.released != nil {
			return fmt.Errorf("interface %d: delivered flit not released", ni.node)
		}
	}
	if n.rel != nil {
		for id, e := range n.rel.entries {
			if e.p.ID != id {
				return fmt.Errorf("retransmission entry %d names packet %d: its slot was recycled", id, e.p.ID)
			}
			if err := heldBy(e.p, noc.OwnedByEntry); err != nil {
				return fmt.Errorf("retransmission entry %d: %w", id, err)
			}
		}
	}
	for s := range n.local {
		if len(n.local[s].mailbox) != 0 {
			return fmt.Errorf("shard %d: %d deliveries left in the mailbox", s, len(n.local[s].mailbox))
		}
	}
	return nil
}

// heldBy checks that owner o holds p, and that the network holds p exactly
// while it is not retired.
func heldBy(p *noc.Packet, o noc.Owner) error {
	if !p.Holds(o) {
		return fmt.Errorf("packet %d is not held by its holder (owner %d)", p.ID, o)
	}
	if p.Holds(noc.OwnedByNetwork) != (p.DeliverCycle == -1) {
		return fmt.Errorf("packet %d: the network's hold disagrees with its delivery cycle %d", p.ID, p.DeliverCycle)
	}
	return nil
}

// CheckInvariants runs the post-drain invariant sweep on the armed checker:
// credit and arena conservation on every channel, then the delivery
// oracle's lost-packet scan (Checker.Finalize). A no-op when no checker is
// armed. Call after draining, between steps.
func (n *Network) CheckInvariants() {
	if n.check == nil {
		return
	}
	n.checkConservation()
	var impacted func(uint64) bool
	if n.fault != nil {
		impacted = n.fault.Impacted
	}
	n.check.Finalize(n.Cycle(), impacted)
}

// checkConservation verifies, once the network is empty, that every
// channel's credits balance (offset by any injected credit faults) and that
// the flit arenas drained exactly (unless a fault class that leaks pooled
// objects fired). Only meaningful at Outstanding == 0 — mid-flight credits
// are legitimately spread across links and buffers.
func (n *Network) checkConservation() {
	if n.Outstanding() != 0 {
		return
	}
	cycle := n.Cycle()
	for site, l := range n.links {
		want := l.Capacity()
		if n.fault != nil {
			want += n.fault.CreditDelta(site)
		}
		if got := l.Credits(); got != want {
			n.check.Credit(cycle, site, got, want)
		}
	}
	leaky := n.check.Leaky() || (n.fault != nil && n.fault.Leaky())
	if out := n.ArenaOutstanding(); out != 0 && !leaky {
		n.check.Arena(cycle, out)
	}
}
