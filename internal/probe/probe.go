// Package probe is the simulator-wide observability layer: a flit-level
// event tracer, a per-router metrics registry, and profiling helpers.
//
// The paper's argument rests on microarchitectural events — XOR collisions
// superimposing flits, the Recovery/Scheduled mode FSM flipping, multi-flit
// aborts forcing Scheduled mode (§2.6–2.7), the contention fan-ins of §3.2 —
// that aggregate statistics cannot show. A Probe records those events into a
// preallocated ring buffer as they happen and counts them per router, so a
// run can be replayed as a Chrome trace (one track per router port, loadable
// in Perfetto), dumped as a textual waveform, or summarized as per-router
// CSV, a mesh heatmap, and a periodic time series.
//
// The package is a leaf: it imports nothing from the simulator, so every
// layer (internal/core, internal/router, internal/noc, internal/network,
// internal/sim) can emit into it without import cycles. All emit sites in
// the simulator are guarded by a nil check — a nil *Probe is the disabled
// state and costs nothing on the hot path (internal/network's
// TestSteadyStateAllocs pins the loaded cycle at 0 allocs/op). A Probe
// itself never allocates per event: the ring buffer is preallocated and
// wraps, keeping the most recent events.
//
// A Probe belongs to one stepping goroutine, so a probed network runs
// serially (network.Config.Validate refuses a probe on more than one
// shard). Runs that execute in parallel (internal/exp pools) must each own a
// distinct Probe; the event stream of a probed run is a pure function of its
// configuration, so serialized streams are byte-identical at any worker
// count — which is also what lets the flight recorder (internal/telemetry)
// attach no probe to a live run and replay a failing one under a probe
// instead.
package probe

import (
	"fmt"
	"math"
)

// EventKind enumerates the traced microarchitectural events.
type EventKind uint8

// The traced event kinds. Arg/Aux meanings are per kind (see Event).
const (
	// EvInject: a packet's head flit entered the source router's local
	// input buffer. Node is the core, Arg the packet ID, Aux the length.
	EvInject EventKind = iota
	// EvBufWrite: a flit was written into an input SRAM FIFO. Arg is the
	// packet ID (or the raw word for encoded flits, Aux = -1).
	EvBufWrite
	// EvBufRead: FIFO read accesses at a port this cycle (Aux = count).
	EvBufRead
	// EvTraverse: a flit traversed the switch and was driven on the output
	// channel. Arg is the packet ID (raw word when encoded, Aux = -1).
	EvTraverse
	// EvCollision: >= 2 inputs traversed the XOR switch together and were
	// productively superimposed (NoX), or misspeculated into a wasted cycle
	// (Spec routers). Aux is the fan-in; Arg the encoded wire image (NoX).
	EvCollision
	// EvDecode: an input port's decode circuitry recovered an original flit
	// from register XOR head (Recovery decode). Arg is the packet ID.
	EvDecode
	// EvAbort: a collision involving a multi-flit packet aborted the cycle
	// and forced Scheduled mode (§2.7). Aux is the arbitration winner.
	EvAbort
	// EvLink: a flit completed a link traversal (delivered to the far-side
	// buffer). Arg is the packet ID (raw word when encoded, Aux = -1).
	EvLink
	// EvCreditStall: an output with pending requests was blocked by
	// exhausted downstream credits.
	EvCreditStall
	// EvDeliver: a packet's tail flit was delivered (and decoded) at the
	// destination interface. Node is the core, Arg the packet ID, Aux the
	// latency in cycles (saturated to 32 bits).
	EvDeliver
	// EvMode: an output's control FSM switched operating mode. Arg is the
	// new mode, Aux the previous (0 = Recovery, 1 = Scheduled).
	EvMode

	numEventKinds
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvBufWrite:
		return "bufwrite"
	case EvBufRead:
		return "bufread"
	case EvTraverse:
		return "traverse"
	case EvCollision:
		return "collision"
	case EvDecode:
		return "decode"
	case EvAbort:
		return "abort"
	case EvLink:
		return "link"
	case EvCreditStall:
		return "stall"
	case EvDeliver:
		return "deliver"
	case EvMode:
		return "mode"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one recorded microarchitectural event. The struct is fixed-size
// and value-typed so the ring buffer holds events without per-event
// allocation.
type Event struct {
	// Cycle is the simulation cycle the event occurred in.
	Cycle int64
	// Arg is the kind-specific 64-bit argument (usually a packet ID; the
	// raw wire image for encoded flits).
	Arg uint64
	// Node is the router (or, for EvInject/EvDeliver, the core) the event
	// occurred at.
	Node int32
	// Aux is the kind-specific secondary argument (flit sequence, fan-in,
	// latency, previous mode). For packet-carrying kinds, Aux = -1 marks an
	// encoded (superimposed) flit whose Arg is the raw wire image.
	Aux int32
	// Port is the router port involved, or -1 when not applicable (NI-side
	// events, whole-router events).
	Port int8
	// Kind discriminates the event.
	Kind EventKind
}

// RouterMetrics accumulates one router's event counts and occupancy
// statistics for the whole probed run.
type RouterMetrics struct {
	// Node is the router's position on the router grid.
	Node int
	// Traversals counts flits driven through the switch onto outputs.
	Traversals int64
	// Collisions counts productive XOR collisions (NoX) or misspeculated
	// contention cycles (Spec routers).
	Collisions int64
	// Aborts counts multi-flit abort cycles (§2.7).
	Aborts int64
	// Decodes counts Recovery decode operations at input ports.
	Decodes int64
	// BufWrites and BufReads count input SRAM accesses.
	BufWrites int64
	BufReads  int64
	// CreditStallCycles counts output-cycles blocked on exhausted credits.
	CreditStallCycles int64
	// RecoveryCycles and ScheduledCycles count evaluated output-cycles
	// spent in each §2.6 operating mode. Cycles skipped by the kernel's
	// quiescence fast path are not counted: a quiescent router is by
	// definition in Recovery rest state.
	RecoveryCycles  int64
	ScheduledCycles int64
	// ModeTransitions counts Recovery<->Scheduled FSM flips.
	ModeTransitions int64
	// OccupancyHist[n] counts evaluated cycles the router held exactly n
	// buffered flits (FIFOs plus decode registers), clamped to the top
	// bucket.
	OccupancyHist []int64
	// LinkFlits[p] counts flits driven on output port p's channel.
	LinkFlits []int64
}

// BufferedTotal returns the occupancy-weighted cycle count (sum n*hist[n]),
// the numerator of mean occupancy.
func (m *RouterMetrics) BufferedTotal() int64 {
	var t int64
	for n, c := range m.OccupancyHist {
		t += int64(n) * c
	}
	return t
}

// SampledCycles returns the number of evaluated cycles in the occupancy
// histogram.
func (m *RouterMetrics) SampledCycles() int64 {
	var t int64
	for _, c := range m.OccupancyHist {
		t += c
	}
	return t
}

// Sample is one periodic snapshot row of the time-series sampler. Event
// fields are deltas over the sampling interval; ActiveComponents is a gauge.
type Sample struct {
	Cycle            int64
	Injects          int64
	Delivers         int64
	Traversals       int64
	Collisions       int64
	Aborts           int64
	CreditStalls     int64
	BufWrites        int64
	ActiveComponents int
}

// Totals aggregates whole-run event counts across the network.
type Totals struct {
	Injects      int64
	Delivers     int64
	Traversals   int64
	Collisions   int64
	Aborts       int64
	Decodes      int64
	CreditStalls int64
	BufWrites    int64
	BufReads     int64
	LinkFlits    int64
}

// Config parameterizes a Probe.
type Config struct {
	// RingEvents is the event ring capacity; it is rounded up to a power of
	// two. The ring keeps the most recent events and counts overwrites.
	// Default 1 << 18 (262144 events, 8 MB).
	RingEvents int
	// SampleEvery emits a time-series snapshot every N cycles; 0 disables
	// the sampler.
	SampleEvery int64
	// PeriodNs scales exported timestamps (the router clock period). Zero
	// leaves timestamps in cycles.
	PeriodNs float64
	// Horizon, when positive, is the first cycle the ring does not record:
	// later events still count in the metrics but are neither stored nor
	// counted in EventCount, so they cannot overwrite a window that ends
	// before it. The flight recorder's replay sets it to one past the
	// trigger cycle.
	Horizon int64
}

// Probe records a simulation's event stream and per-router metrics. The
// zero value is not usable; construct with New. A nil *Probe is the
// disabled probe: every emit site in the simulator guards on it.
type Probe struct {
	cfg  Config
	ring []Event
	mask uint64
	// n is the total number of events emitted (>= len(ring) once wrapped).
	n uint64

	width, height int
	ports         int
	cores         int
	routers       []RouterMetrics
	totals        Totals

	samples    []Sample
	lastSample Totals
	lastCycle  int64
	attached   bool
}

// New builds a probe with the given configuration.
func New(cfg Config) *Probe {
	if cfg.RingEvents <= 0 {
		cfg.RingEvents = 1 << 18
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = math.MaxInt64
	}
	size := 1
	for size < cfg.RingEvents {
		size <<= 1
	}
	return &Probe{cfg: cfg, ring: make([]Event, size), mask: uint64(size - 1), lastCycle: -1}
}

// Attach sizes the per-router metrics for a network's geometry. The network
// calls it during construction; attaching twice (Multi's lockstep physical
// networks share one probe) keeps the first geometry and merges counts.
func (p *Probe) Attach(width, height, ports, cores, bufferDepth int) {
	if p.attached {
		return
	}
	p.attached = true
	p.width, p.height, p.ports, p.cores = width, height, ports, cores
	if bufferDepth <= 0 {
		bufferDepth = 4
	}
	// FIFO depth plus decode register per port, plus one clamp bucket.
	buckets := ports*(bufferDepth+1) + 1
	p.routers = make([]RouterMetrics, width*height)
	for i := range p.routers {
		p.routers[i] = RouterMetrics{
			Node:          i,
			OccupancyHist: make([]int64, buckets),
			LinkFlits:     make([]int64, ports),
		}
	}
}

// Geometry returns the attached router-grid shape and radix.
func (p *Probe) Geometry() (width, height, ports int) {
	return p.width, p.height, p.ports
}

// emit appends one event to the ring, unless it lies past the horizon.
func (p *Probe) emit(ev Event) {
	if ev.Cycle >= p.cfg.Horizon {
		return
	}
	p.ring[p.n&p.mask] = ev
	p.n++
}

// EventCount returns the total events recorded before the horizon,
// including any overwritten in the ring.
func (p *Probe) EventCount() uint64 { return p.n }

// Dropped returns how many events were overwritten by ring wraparound.
func (p *Probe) Dropped() uint64 {
	if p.n <= uint64(len(p.ring)) {
		return 0
	}
	return p.n - uint64(len(p.ring))
}

// Events returns the retained events in chronological order (a copy).
func (p *Probe) Events() []Event {
	if p.n <= uint64(len(p.ring)) {
		out := make([]Event, p.n)
		copy(out, p.ring[:p.n])
		return out
	}
	out := make([]Event, len(p.ring))
	start := p.n & p.mask
	copy(out, p.ring[start:])
	copy(out[uint64(len(p.ring))-start:], p.ring[:start])
	return out
}

// EventsWindow returns the retained events with cycle in [start, end], in
// chronological order (a copy). Events that fell inside the window but were
// overwritten by ring wraparound are gone; compare len(EventsWindow) against
// Dropped to detect a window that outlived the ring.
func (p *Probe) EventsWindow(start, end int64) []Event {
	all := p.Events()
	// The ring is chronological, so the window is one contiguous run.
	lo := 0
	for lo < len(all) && all[lo].Cycle < start {
		lo++
	}
	hi := lo
	for hi < len(all) && all[hi].Cycle <= end {
		hi++
	}
	out := make([]Event, hi-lo)
	copy(out, all[lo:hi])
	return out
}

// Routers returns the per-router metrics, indexed by router node ID.
func (p *Probe) Routers() []RouterMetrics { return p.routers }

// Totals returns whole-run aggregate event counts.
func (p *Probe) Totals() Totals { return p.totals }

// Samples returns the time-series snapshots recorded so far.
func (p *Probe) Samples() []Sample { return p.samples }

// router returns the metrics slot for node, or nil when unattached or out
// of range (defensive: emits never panic a probed run).
func (p *Probe) router(node int) *RouterMetrics {
	if node < 0 || node >= len(p.routers) {
		return nil
	}
	return &p.routers[node]
}

// Inject records a packet entering the network at its source interface.
func (p *Probe) Inject(cycle int64, core int, pkt uint64, flits int) {
	p.totals.Injects++
	p.emit(Event{Cycle: cycle, Kind: EvInject, Node: int32(core), Port: -1, Arg: pkt, Aux: int32(flits)})
}

// Deliver records a packet completing at its destination interface.
func (p *Probe) Deliver(cycle int64, core int, pkt uint64, latency int64) {
	p.totals.Delivers++
	aux := latency
	if aux > 1<<31-1 {
		aux = 1<<31 - 1
	}
	p.emit(Event{Cycle: cycle, Kind: EvDeliver, Node: int32(core), Port: -1, Arg: pkt, Aux: int32(aux)})
}

// BufWrite records a flit written into an input FIFO. Encoded flits pass
// their raw wire image as pkt and seq = -1.
func (p *Probe) BufWrite(cycle int64, node, port int, pkt uint64, seq int) {
	p.totals.BufWrites++
	if m := p.router(node); m != nil {
		m.BufWrites++
	}
	p.emit(Event{Cycle: cycle, Kind: EvBufWrite, Node: int32(node), Port: int8(port), Arg: pkt, Aux: int32(seq)})
}

// BufRead records reads FIFO read accesses at an input port this cycle.
func (p *Probe) BufRead(cycle int64, node, port, reads int) {
	p.totals.BufReads += int64(reads)
	if m := p.router(node); m != nil {
		m.BufReads += int64(reads)
	}
	p.emit(Event{Cycle: cycle, Kind: EvBufRead, Node: int32(node), Port: int8(port), Aux: int32(reads)})
}

// Traverse records a flit driven through the switch onto output port. seq is
// the flit sequence, or -1 for encoded superpositions (pkt = raw image).
func (p *Probe) Traverse(cycle int64, node, port int, pkt uint64, seq int) {
	p.totals.Traversals++
	if m := p.router(node); m != nil {
		m.Traversals++
		if port >= 0 && port < len(m.LinkFlits) {
			m.LinkFlits[port]++
		}
	}
	p.emit(Event{Cycle: cycle, Kind: EvTraverse, Node: int32(node), Port: int8(port), Arg: pkt, Aux: int32(seq)})
}

// Collision records fanin inputs colliding at an output. raw is the encoded
// wire image for productive NoX collisions, 0 for Spec misspeculation.
func (p *Probe) Collision(cycle int64, node, port, fanin int, raw uint64) {
	p.totals.Collisions++
	if m := p.router(node); m != nil {
		m.Collisions++
	}
	p.emit(Event{Cycle: cycle, Kind: EvCollision, Node: int32(node), Port: int8(port), Arg: raw, Aux: int32(fanin)})
}

// Decode records a Recovery decode at an input port recovering pkt.
func (p *Probe) Decode(cycle int64, node, port int, pkt uint64) {
	p.totals.Decodes++
	if m := p.router(node); m != nil {
		m.Decodes++
	}
	p.emit(Event{Cycle: cycle, Kind: EvDecode, Node: int32(node), Port: int8(port), Arg: pkt})
}

// Abort records a multi-flit abort at an output; winner is the input
// pre-scheduled into Scheduled mode.
func (p *Probe) Abort(cycle int64, node, port, winner int) {
	p.totals.Aborts++
	if m := p.router(node); m != nil {
		m.Aborts++
	}
	p.emit(Event{Cycle: cycle, Kind: EvAbort, Node: int32(node), Port: int8(port), Aux: int32(winner)})
}

// Link records a flit completing its traversal of the channel driven by
// (node, port); injection channels use port = -1 with node = the core.
func (p *Probe) Link(cycle int64, node, port int, pkt uint64, seq int) {
	p.totals.LinkFlits++
	p.emit(Event{Cycle: cycle, Kind: EvLink, Node: int32(node), Port: int8(port), Arg: pkt, Aux: int32(seq)})
}

// CreditStall records an output with pending requests blocked on credits.
func (p *Probe) CreditStall(cycle int64, node, port int) {
	p.totals.CreditStalls++
	if m := p.router(node); m != nil {
		m.CreditStallCycles++
	}
	p.emit(Event{Cycle: cycle, Kind: EvCreditStall, Node: int32(node), Port: int8(port)})
}

// ModeCycle counts one evaluated output-cycle in the given §2.6 operating
// mode (metrics only; no ring event).
func (p *Probe) ModeCycle(node int, scheduled bool) {
	if m := p.router(node); m != nil {
		if scheduled {
			m.ScheduledCycles++
		} else {
			m.RecoveryCycles++
		}
	}
}

// ModeChange records an output's FSM switching mode (0 = Recovery,
// 1 = Scheduled).
func (p *Probe) ModeChange(cycle int64, node, port, from, to int) {
	if m := p.router(node); m != nil {
		m.ModeTransitions++
	}
	p.emit(Event{Cycle: cycle, Kind: EvMode, Node: int32(node), Port: int8(port), Arg: uint64(to), Aux: int32(from)})
}

// Occupancy records a router's buffered-flit count for one evaluated cycle
// (metrics only; no ring event).
func (p *Probe) Occupancy(node, buffered int) {
	m := p.router(node)
	if m == nil {
		return
	}
	if buffered >= len(m.OccupancyHist) {
		buffered = len(m.OccupancyHist) - 1
	}
	if buffered < 0 {
		buffered = 0
	}
	m.OccupancyHist[buffered]++
}

// NIBufWrite records a flit written into a network interface's ejection
// buffer. NI events carry the core in Node with Port = -1 and update totals
// only: core IDs overlap router node IDs, so crediting router metrics here
// would corrupt them.
func (p *Probe) NIBufWrite(cycle int64, core int, pkt uint64, seq int) {
	p.totals.BufWrites++
	p.emit(Event{Cycle: cycle, Kind: EvBufWrite, Node: int32(core), Port: -1, Arg: pkt, Aux: int32(seq)})
}

// NIBufRead records reads ejection-buffer read accesses at a network
// interface this cycle.
func (p *Probe) NIBufRead(cycle int64, core, reads int) {
	p.totals.BufReads += int64(reads)
	p.emit(Event{Cycle: cycle, Kind: EvBufRead, Node: int32(core), Port: -1, Aux: int32(reads)})
}

// NIDecode records a network interface's ejection decode circuitry
// recovering pkt from an encoded superposition.
func (p *Probe) NIDecode(cycle int64, core int, pkt uint64) {
	p.totals.Decodes++
	p.emit(Event{Cycle: cycle, Kind: EvDecode, Node: int32(core), Port: -1, Arg: pkt})
}

// Tick advances the time-series sampler at the end of a simulated cycle;
// active is the kernel's evaluated-component count. Ticks for an
// already-sampled cycle (lockstep multi-network setups call it once per
// physical network) are ignored.
func (p *Probe) Tick(cycle int64, active int) {
	if p.cfg.SampleEvery <= 0 || cycle <= p.lastCycle {
		return
	}
	p.lastCycle = cycle
	if cycle%p.cfg.SampleEvery != 0 {
		return
	}
	t := p.totals
	d := p.lastSample
	p.samples = append(p.samples, Sample{
		Cycle:            cycle,
		Injects:          t.Injects - d.Injects,
		Delivers:         t.Delivers - d.Delivers,
		Traversals:       t.Traversals - d.Traversals,
		Collisions:       t.Collisions - d.Collisions,
		Aborts:           t.Aborts - d.Aborts,
		CreditStalls:     t.CreditStalls - d.CreditStalls,
		BufWrites:        t.BufWrites - d.BufWrites,
		ActiveComponents: active,
	})
	p.lastSample = t
}
