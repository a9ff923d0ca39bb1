// Package check is a runtime invariant layer that can be armed on any
// simulation. It records protocol violations instead of panicking — under
// fault injection a violated invariant is the *expected* outcome, and on
// the sharded kernel a worker-goroutine panic is unrecoverable — and keeps
// an end-to-end delivery oracle: every injected packet must be delivered
// bit-exact or accounted for by a fault.
//
// The package is dependency-free so every layer (core, router, network,
// harness) can report into it. All methods are nil-receiver-safe: a
// disarmed simulation passes a nil *Checker and pays only a nil check.
package check

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind classifies a violation.
type Kind uint8

const (
	// KindPayload: a delivered flit's payload differs from the injected
	// payload (delivery oracle, noc.PayloadWord identity).
	KindPayload Kind = iota
	// KindMisroute: a flit arrived at a network interface other than its
	// packet's destination.
	KindMisroute
	// KindSequence: flit sequencing broke at delivery — a body flit with no
	// head in reassembly, or interleaving within one virtual channel.
	KindSequence
	// KindDecode: a Recovery-mode XOR decode failed bit-exactness — the
	// register and incoming flit's constituent sets or raw images are
	// inconsistent (wire.Decode error).
	KindDecode
	// KindMode: a NoX protocol FSM assertion failed — e.g. a multi-flit
	// abort did not force Scheduled mode until the tail (§2.7).
	KindMode
	// KindOverflow: a flit arrived at a full buffer (credit protocol
	// violated upstream).
	KindOverflow
	// KindCredit: post-drain credit conservation failed on a link.
	KindCredit
	// KindArena: post-drain flit-arena Outstanding was nonzero on a run
	// with no leak-producing fault.
	KindArena
	// KindLost: an injected packet was neither delivered nor impacted by
	// any fault (delivery oracle, Finalize).
	KindLost
	// KindWatchdog: the deadlock/livelock watchdog tripped.
	KindWatchdog

	NumKinds = 10
)

// String returns the short report label for the kind.
func (k Kind) String() string {
	switch k {
	case KindPayload:
		return "payload"
	case KindMisroute:
		return "misroute"
	case KindSequence:
		return "sequence"
	case KindDecode:
		return "decode"
	case KindMode:
		return "mode"
	case KindOverflow:
		return "overflow"
	case KindCredit:
		return "credit"
	case KindArena:
		return "arena"
	case KindLost:
		return "lost"
	case KindWatchdog:
		return "watchdog"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Violation is one recorded invariant failure. Node/Port/Packet are -1/0
// when not applicable.
type Violation struct {
	Cycle  int64
	Kind   Kind
	Node   int32
	Port   int32
	Packet uint64
	Detail string
}

// String renders the violation as one deterministic report line.
func (v Violation) String() string {
	return fmt.Sprintf("cycle=%d kind=%s node=%d port=%d pkt=%d %s",
		v.Cycle, v.Kind, v.Node, v.Port, v.Packet, v.Detail)
}

// Config selects which invariant families are armed. The zero Config arms
// nothing (but the checker still tracks inject/deliver counts).
type Config struct {
	// Delivery arms the end-to-end oracle: payload/misroute/sequence checks
	// at delivery and the lost-packet scan in Finalize.
	Delivery bool
	// Conservation arms the post-drain credit and arena checks.
	Conservation bool
	// Protocol arms the NoX-specific assertions: decode bit-exactness,
	// mode-FSM transitions, buffer-overflow guards.
	Protocol bool
	// MaxViolations caps the violations kept in memory (default 1024);
	// overflow is counted, not stored, so a pathological campaign cannot
	// exhaust memory.
	MaxViolations int
}

// All returns a Config with every family armed.
func All() Config {
	return Config{Delivery: true, Conservation: true, Protocol: true}
}

// Checker accumulates violations and delivery state for one simulation (or
// one multi-class group sharing packet IDs). Safe for concurrent use by the
// sharded kernel's workers.
type Checker struct {
	cfg Config
	max int

	mu            sync.Mutex
	violations    []Violation
	truncated     int64
	counts        [NumKinds]int64
	inflight      map[uint64]int64 // packet id -> inject cycle
	injected      int64
	delivered     int64
	undeliverable int64
	leaky         bool
	finalized     bool

	// observer, when set, is called with a copy of every recorded violation,
	// outside the checker's lock. It runs on whichever goroutine reported the
	// violation — under sharded stepping that is a worker — so it must be
	// safe for concurrent use and must not read simulation state. The flight
	// recorder (internal/telemetry) uses it to latch its dump trigger.
	observer func(Violation)
}

// New returns an armed checker.
func New(cfg Config) *Checker {
	max := cfg.MaxViolations
	if max <= 0 {
		max = 1024
	}
	return &Checker{cfg: cfg, max: max, inflight: make(map[uint64]int64)}
}

// Fresh returns a new checker with c's configuration and none of its
// state, or nil for a nil c: the checker a replay of c's run starts with.
func (c *Checker) Fresh() *Checker {
	if c == nil {
		return nil
	}
	return New(c.cfg)
}

// Armed reports whether the checker is present; nil-safe.
func (c *Checker) Armed() bool { return c != nil }

// SetObserver installs (or, with nil, removes) the violation observer; see
// the field contract. Install before arming the simulation — installation
// is not synchronized with concurrent record calls.
func (c *Checker) SetObserver(fn func(Violation)) {
	if c == nil {
		return
	}
	c.observer = fn
}

func (c *Checker) record(v Violation) {
	c.mu.Lock()
	c.counts[v.Kind]++
	if len(c.violations) < c.max {
		c.violations = append(c.violations, v)
	} else {
		c.truncated++
	}
	obs := c.observer
	c.mu.Unlock()
	if obs != nil {
		obs(v)
	}
}

// OnInject registers an injected packet with the delivery oracle.
func (c *Checker) OnInject(cycle int64, id uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.injected++
	c.inflight[id] = cycle
	c.mu.Unlock()
}

// OnDeliver retires a packet from the delivery oracle.
func (c *Checker) OnDeliver(cycle int64, id uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.delivered++
	delete(c.inflight, id)
	c.mu.Unlock()
}

// OnUndeliverable retires a packet the network has proven can never be
// delivered — its destination is unreachable after a permanent fault, or
// end-to-end retransmission exhausted its retries. The packet is accounted
// (not lost): Finalize will not scan it, and it is not a violation. The
// undeliverable disposition is what lets a partitioned network drain to
// quiescence without tripping the deadlock or lost-packet oracles.
func (c *Checker) OnUndeliverable(cycle int64, id uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.undeliverable++
	delete(c.inflight, id)
	c.mu.Unlock()
}

// Payload reports a delivered flit whose payload mismatches the injected
// pattern.
func (c *Checker) Payload(cycle int64, node int, pkt uint64, seq int, got, want uint64) {
	if c == nil || !c.cfg.Delivery {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindPayload, Node: int32(node), Port: -1, Packet: pkt,
		Detail: fmt.Sprintf("seq=%d got=%#x want=%#x", seq, got, want)})
}

// Misroute reports a flit delivered to the wrong network interface.
func (c *Checker) Misroute(cycle int64, node int, pkt uint64, dst int) {
	if c == nil || !c.cfg.Delivery {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindMisroute, Node: int32(node), Port: -1, Packet: pkt,
		Detail: fmt.Sprintf("packet dst=%d", dst)})
}

// Sequence reports broken flit sequencing at delivery.
func (c *Checker) Sequence(cycle int64, node int, pkt uint64, detail string) {
	if c == nil || !c.cfg.Delivery {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindSequence, Node: int32(node), Port: -1, Packet: pkt, Detail: detail})
}

// Decode reports a failed Recovery-mode XOR reconstruction.
func (c *Checker) Decode(cycle int64, node, port int, err error) {
	if c == nil || !c.cfg.Protocol {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindDecode, Node: int32(node), Port: int32(port),
		Detail: err.Error()})
}

// Mode reports a NoX output-controller FSM assertion failure.
func (c *Checker) Mode(cycle int64, node, port int, detail string) {
	if c == nil || !c.cfg.Protocol {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindMode, Node: int32(node), Port: int32(port), Detail: detail})
}

// Overflow reports a flit arriving at a full buffer; the flit is swallowed
// by the caller.
func (c *Checker) Overflow(cycle int64, node, port int, pkt uint64) {
	if c == nil || !c.cfg.Protocol {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindOverflow, Node: int32(node), Port: int32(port), Packet: pkt,
		Detail: "flit arrived at full buffer, swallowed"})
	c.MarkLeaky()
}

// Credit reports a post-drain per-link credit conservation failure.
func (c *Checker) Credit(cycle int64, site, got, want int) {
	if c == nil || !c.cfg.Conservation {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindCredit, Node: -1, Port: int32(site),
		Detail: fmt.Sprintf("link site %d: credits=%d want=%d", site, got, want)})
}

// Arena reports nonzero post-drain arena occupancy on a leak-free run.
func (c *Checker) Arena(cycle int64, outstanding int) {
	if c == nil || !c.cfg.Conservation {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindArena, Node: -1, Port: -1,
		Detail: fmt.Sprintf("arena outstanding=%d after drain", outstanding)})
}

// Watchdog reports a deadlock/livelock trip; always recorded regardless of
// the armed families.
func (c *Checker) Watchdog(cycle int64, detail string) {
	if c == nil {
		return
	}
	c.record(Violation{Cycle: cycle, Kind: KindWatchdog, Node: -1, Port: -1, Detail: detail})
}

// MarkLeaky records that pooled flit objects may legitimately have leaked
// (swallowed flits), disabling the arena-exactness part of Finalize-time
// conservation.
func (c *Checker) MarkLeaky() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.leaky = true
	c.mu.Unlock()
}

// Leaky reports whether MarkLeaky was called.
func (c *Checker) Leaky() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaky
}

// Finalize runs the end-of-run delivery oracle: every still-inflight packet
// is either impacted by a fault (accounted) or recorded as lost. impacted
// may be nil when no faults were injected. Idempotent: only the first call
// scans. Returns (lost, accounted).
func (c *Checker) Finalize(cycle int64, impacted func(id uint64) bool) (lost, accounted int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	if c.finalized {
		c.mu.Unlock()
		return 0, 0
	}
	c.finalized = true
	ids := make([]uint64, 0, len(c.inflight))
	for id := range c.inflight {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if impacted != nil && impacted(id) {
			accounted++
			continue
		}
		lost++
		if c.cfg.Delivery {
			c.mu.Lock()
			injectCycle := c.inflight[id]
			// Past the storage cap, with no observer, record only counts a
			// violation: its detail would be formatted for nothing. (The cap,
			// once reached, stays reached.)
			kept := len(c.violations) < c.max || c.observer != nil
			c.mu.Unlock()
			v := Violation{Cycle: cycle, Kind: KindLost, Node: -1, Port: -1, Packet: id}
			if kept {
				v.Detail = fmt.Sprintf("injected at cycle %d, never delivered, no fault accounts for it", injectCycle)
			}
			c.record(v)
		}
	}
	return lost, accounted
}

// Violations returns a sorted copy of the recorded violations (by cycle,
// then kind, node, port, packet) so reports are deterministic regardless of
// the recording interleave across shard workers.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Packet < b.Packet
	})
	return out
}

// Counts returns the per-kind violation totals (including truncated ones).
func (c *Checker) Counts() [NumKinds]int64 {
	if c == nil {
		return [NumKinds]int64{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Total returns the overall violation count, including any past the
// MaxViolations storage cap.
func (c *Checker) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Injected and Delivered return the oracle's packet totals.
func (c *Checker) Injected() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// Delivered returns how many packets the oracle saw retired.
func (c *Checker) Delivered() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// Undeliverable returns how many packets were retired as provably
// undeliverable (see OnUndeliverable).
func (c *Checker) Undeliverable() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.undeliverable
}

// WriteReport writes the violation summary and the stored violations (in
// deterministic order) to w.
func (c *Checker) WriteReport(w io.Writer) {
	if c == nil {
		fmt.Fprintln(w, "check: not armed")
		return
	}
	counts := c.Counts()
	fmt.Fprintf(w, "check: injected=%d delivered=%d undeliverable=%d violations=%d\n",
		c.Injected(), c.Delivered(), c.Undeliverable(), c.Total())
	for k := Kind(0); k < NumKinds; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-9s %d\n", k, counts[k])
		}
	}
	for _, v := range c.Violations() {
		fmt.Fprintf(w, "  %s\n", v)
	}
	c.mu.Lock()
	trunc := c.truncated
	c.mu.Unlock()
	if trunc > 0 {
		fmt.Fprintf(w, "  (+%d further violations not stored)\n", trunc)
	}
}

// Watchdog detects no-forward-progress windows: if the delivered-packet
// count does not advance for Window cycles while packets are outstanding,
// the run is declared wedged (livelock or starvation).
type Watchdog struct {
	// Window is the no-progress trip threshold in cycles.
	Window int64

	lastCycle     int64
	lastDelivered int64
}

// Reset starts (or restarts) the progress clock at the given observation.
func (w *Watchdog) Reset(cycle, delivered int64) {
	w.lastCycle, w.lastDelivered = cycle, delivered
}

// Observe feeds one observation; tripped reports whether Window cycles
// passed without a delivery, and stalledFor how long progress has been
// absent.
func (w *Watchdog) Observe(cycle, delivered int64) (stalledFor int64, tripped bool) {
	if delivered != w.lastDelivered {
		w.lastCycle, w.lastDelivered = cycle, delivered
		return 0, false
	}
	stalledFor = cycle - w.lastCycle
	return stalledFor, w.Window > 0 && stalledFor >= w.Window
}
