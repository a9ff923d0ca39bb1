// Package router implements the four router microarchitectures compared in
// the paper (§3): the non-speculative baseline, the two speculative designs
// Spec-Fast and Spec-Accurate adapted from Mullins et al., and the NoX
// router built on internal/core's XOR-coded switch.
//
// All four are single-cycle-per-hop wormhole routers with five ports,
// credit-based flow control, 4-deep input FIFOs, and lookahead XY routing;
// they differ only in clock period (modeled by internal/physical) and in
// how they behave under output contention — which is exactly the design
// space the paper examines.
//
// A router is a small struct plus per-port records (noxPort; inPort with
// nsPort or specPort), one slab per record type (Slabs). Every walk over
// ports follows a mask of dirty ports: Link.Send raises the input's bit in
// the staged-input mask and Latch takes from those inputs only, receive and
// the draining pop keep the busy-input mask, Compute marks the outputs it
// evaluated and the pops it staged, Commit applies exactly those and keeps
// the held-output masks, and Quiet is a compare; Audit proves the masks
// equal a port scan and the staged mask zero. Per-cycle scratch is the
// walking goroutine's: stack vectors, or for NoX one noxScratch per lane
// (DESIGN.md §2 has the table).
package router

import (
	"fmt"
	"strings"

	"repro/internal/arbiter"
	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// Arch selects a router microarchitecture.
type Arch int

// The four evaluated router architectures (§3.1, Table 2).
const (
	// NonSpec arbitrates and traverses serially within one long cycle
	// (0.92 ns): maximally efficient outputs, slowest clock.
	NonSpec Arch = iota
	// SpecFast speculatively traverses without arbitration (0.69 ns);
	// collisions waste cycles and link energy, and its minimal-latency
	// allocator creates unnecessary next-cycle reservations.
	SpecFast
	// SpecAccurate is the compromise speculative design (0.72 ns) whose
	// allocator removes already-successful requests.
	SpecAccurate
	// NoX overlaps arbitration with XOR-coded switch traversal (0.76 ns):
	// collisions are productive encoded transfers.
	NoX
)

// Archs lists all architectures in the paper's presentation order.
var Archs = []Arch{NonSpec, SpecFast, SpecAccurate, NoX}

// String returns the paper's name for the architecture.
func (a Arch) String() string {
	switch a {
	case NonSpec:
		return "Non-Speculative"
	case SpecFast:
		return "Spec-Fast"
	case SpecAccurate:
		return "Spec-Accurate"
	case NoX:
		return "NoX"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// ArchByName maps a CLI spelling of an architecture to its Arch value.
func ArchByName(name string) (Arch, error) {
	switch strings.ToLower(name) {
	case "nonspec", "non-speculative", "sequential":
		return NonSpec, nil
	case "specfast", "spec-fast":
		return SpecFast, nil
	case "specaccurate", "spec-accurate":
		return SpecAccurate, nil
	case "nox":
		return NoX, nil
	default:
		return 0, fmt.Errorf("unknown architecture %q (nonspec|specfast|specaccurate|nox)", name)
	}
}

// Config parameterizes a router instance.
type Config struct {
	Arch Arch
	// Node is the router's position on the router grid.
	Node        noc.NodeID
	Routes      *routing.Table
	BufferDepth int
	Counters    *power.Counters
	// Ports is the router radix: 4 direction ports plus one local port per
	// attached core (default 5, the paper's mesh router; 8 for the
	// 4-concentrated CMesh of the future-work study).
	Ports int
	// NewArbiter builds the per-output arbiter; nil selects the round-robin
	// arbiter every port record carries by value.
	NewArbiter func(n int) arbiter.Arbiter
	// Probe, when non-nil, receives flit-level trace events and per-router
	// metrics. A nil probe disables all instrumentation at zero cost.
	Probe *probe.Probe
	// Arena, when non-nil, pools the flits the router creates and retires
	// (NoX superpositions and decode copies). Nil falls back to the heap.
	Arena *noc.Arena
	// Slabs, when non-nil, batches the backing storage of many routers into
	// one exactly sized block per record type (see NewSlabs) — the network
	// construction path. Nil allocates per router.
	Slabs *Slabs
	// Check, when non-nil, arms the runtime invariant layer: protocol
	// violations that an injected fault can legitimately produce (corrupt
	// XOR decodes, orphan multi-flit bodies, buffer overruns) are reported
	// to it instead of panicking, so fault campaigns on the sharded kernel
	// never kill a worker goroutine.
	Check *check.Checker
}

func (c *Config) fill() {
	if c.Routes == nil {
		panic("router: Config.Routes is required")
	}
	if c.Ports == 0 {
		c.Ports = int(noc.NumPorts)
	}
	if c.Ports < 5 || c.Ports > 32 {
		panic("router: Ports must be in [5,32]")
	}
	if c.BufferDepth <= 0 {
		c.BufferDepth = 4
	}
	if c.Counters == nil {
		c.Counters = &power.Counters{}
	}
	if c.Slabs == nil {
		// Nothing reserved: every take allocates exactly its length, so a
		// standalone router costs no slack memory.
		c.Slabs = &Slabs{}
	}
}

// maxPorts is the radix bound Config.fill enforces: port masks are uint32
// and per-cycle scratch vectors [maxPorts] arrays.
const maxPorts = 32

// PortState is one port's live diagnostic state, snapshot by the deadlock
// watchdog's dump: input-side occupancy and the state of the same-numbered
// output. Fields that do not apply to an architecture (or an unwired port)
// are -1.
type PortState struct {
	// Buffered is the input FIFO occupancy in flits.
	Buffered int
	// Register reports an occupied NoX decode register (always false on
	// the baseline architectures).
	Register bool
	// OutMode is the NoX output mode (0 Recovery, 1 Scheduled), -1 on the
	// baselines.
	OutMode int
	// OutLock is the input holding the output through a multi-flit packet
	// (wormhole lock or speculative packet reservation), -1 if none.
	OutLock int
	// OutCredits is the credit count of the output link, -1 if unwired.
	OutCredits int
}

// String renders the port state as a compact diagnostic token.
func (s PortState) String() string {
	out := fmt.Sprintf("buf=%d", s.Buffered)
	if s.Register {
		out += " reg"
	}
	if s.OutMode == 1 {
		out += " sched"
	}
	if s.OutLock >= 0 {
		out += fmt.Sprintf(" lock=%d", s.OutLock)
	}
	if s.OutCredits >= 0 {
		out += fmt.Sprintf(" cr=%d", s.OutCredits)
	}
	return out
}

// Router is one mesh router participating in the two-phase simulation.
// Every architecture implements sim.Quiescable so drained routers drop out
// of the kernel's active set, and sim.Latcher: a router owns the channels
// feeding its input ports, and its Commit ends by taking in what its
// neighbours staged on them this cycle (Latch alone when the router was
// parked and has nothing of its own to commit).
type Router interface {
	sim.Quiescable
	sim.Latcher
	// InputReceiver returns port p as a noc.Receiver, for a hand-driven
	// link's Commit to deliver into (the router's own Latch does not go
	// through it).
	InputReceiver(p noc.Port) noc.Receiver
	// SetInputLink registers the link feeding port p and binds it to bit p
	// of the router's staged-input mask: the router latches the flits
	// staged on it and returns credits to it when buffer slots free.
	SetInputLink(p noc.Port, l *noc.Link)
	// SetOutputLink registers the link driven by output port p.
	SetOutputLink(p noc.Port, l *noc.Link)
	// BufferedFlits returns the number of flits currently buffered, used
	// by drain checks.
	BufferedFlits() int
	// PortStates appends one PortState per port to buf and returns it —
	// the deadlock watchdog's diagnostic snapshot.
	PortStates(buf []PortState) []PortState
	// SaveState serializes the router's between-step persistent state
	// (queues, registers, FSMs, locks, reservations, arbiter priorities).
	SaveState(e *codec.Encoder) error
	// RestoreState loads state saved by SaveState into this freshly
	// constructed router of the identical configuration.
	RestoreState(d *codec.Decoder) error
	// Flush discards all in-flight state — buffered flits, decode
	// registers, wormhole locks, reservations, staged actions — returning
	// the router to its post-construction rest. Every dropped flit object
	// is handed to drop before its storage is recycled (callers walk the
	// Parts of encoded flits for packet accounting); drop may be nil.
	// Called between steps by a reconfiguration epoch after a hard fault.
	Flush(drop func(*noc.Flit))
	// Reroute swaps the router's routing table. Buffered flits keep their
	// stale lookahead OutPort, so epochs Flush before the swap matters.
	Reroute(routes *routing.Table)
	// Audit recomputes from a full scan of the port records what the router
	// caches between steps — busy inputs, held outputs, FIFO heads — and
	// returns an error naming the first disagreement, or a staged-input
	// mask that is not zero (a flit staged and never latched). The masks
	// drive every walk and Quiet, so a stale bit is a skipped port. A Spec
	// reservation must name a packet exactly when it is live. Buffered
	// flits hold no packet slot (they carry their own header), so they are
	// not audited.
	// Tests call Audit after every commit.
	Audit() error
}

// New builds a router of the configured architecture.
func New(cfg Config) Router {
	cfg.fill()
	switch cfg.Arch {
	case NonSpec:
		return newNonSpec(&cfg)
	case SpecFast, SpecAccurate:
		return newSpec(&cfg)
	case NoX:
		return newNoX(&cfg)
	default:
		panic(fmt.Sprintf("router: unknown architecture %d", int(cfg.Arch)))
	}
}

// base carries what every architecture shares beside its port records: the
// route row, the instrumentation sinks and the flit pool, taken out of the
// Config once at construction (the Config itself is not kept).
type base struct {
	// row is this router's precomputed route-table row, indexed by
	// destination core — lookahead route computation in one load.
	row      []noc.Port
	counters *power.Counters
	// probe receives flit-level trace events, nil when disabled.
	probe *probe.Probe
	// check, when armed, turns fault-reachable protocol violations into
	// reports (see Config.Check).
	check *check.Checker
	arena *noc.Arena
	// sink is the architecture's receive method, for InputReceiver.
	sink flitSink
	node noc.NodeID
	// wired has a bit per output with a link. A lookahead port is checked
	// against it once, where it is computed (route) or loaded (RestoreState).
	wired uint32
	// staged is the staged-input mask, the input register's write strobes:
	// a bit per input whose channel a neighbour sent on this cycle, raised
	// by Link.Send in the compute phase and cleared by Latch once it has
	// taken those flits. Zero between steps.
	staged uint32
}

func (b *base) init(cfg *Config, sink flitSink) {
	b.row = cfg.Routes.Row(cfg.Node)
	b.counters, b.probe, b.check, b.arena = cfg.Counters, cfg.Probe, cfg.Check, cfg.Arena
	b.node, b.sink = cfg.Node, sink
}

// arbiterFor returns the arbiter of one output: cfg.NewArbiter's when set,
// otherwise the round-robin arbiter rr the port record carries by value.
func arbiterFor(cfg *Config, rr *arbiter.RoundRobin) arbiter.Arbiter {
	if cfg.NewArbiter != nil {
		return cfg.NewArbiter(cfg.Ports)
	}
	rr.Init(cfg.Ports)
	return rr
}

// InputReceiver returns the link sink for port p, allocated on demand: only
// hand-driven links deliver through one (a network's are latched by Latch).
func (b *base) InputReceiver(p noc.Port) noc.Receiver { return &portReceiver{r: b.sink, port: p} }

// flitTraceID returns a flit's trace identity: its packet ID and sequence, or
// the raw wire image with seq -1 for an encoded superposition (no one owner).
func flitTraceID(f *noc.Flit) (arg uint64, seq int) {
	if f.Encoded {
		return f.Raw, -1
	}
	return f.ID, f.Seq
}

// wire registers l as the link driven by output p, whose record field is out.
func (b *base) wire(out **noc.Link, p noc.Port, l *noc.Link) {
	*out = l
	b.wired &^= 1 << uint(p)
	if l != nil {
		b.wired |= 1 << uint(p)
	}
}

// bindInput binds the link feeding input p to bit p of the staged-input mask.
func (b *base) bindInput(p noc.Port, l *noc.Link) {
	if l != nil {
		l.SetSinkMask(&b.staged, int(p))
	}
}

// returnCredits hands the n slots an input port freed this cycle back to the
// link feeding it.
func returnCredits(l *noc.Link, n int, cycle int64) {
	if l == nil {
		panic("router: credit return on unwired input")
	}
	l.ReturnCredits(cycle, n)
}

// checkWired panics on a lookahead port this router cannot drive: a route
// table or restore bug, caught once where the port enters the router.
func (b *base) checkWired(o noc.Port) {
	if b.wired>>uint(o)&1 == 0 {
		panic("router: flit routed to unwired output")
	}
}

// route computes the lookahead output port at this router for dst.
func (b *base) route(dst noc.NodeID) noc.Port {
	o := b.row[dst]
	b.checkWired(o)
	return o
}

// Reroute swaps the routing table: a slice-header repoint at this router's
// new row. The NoX router overrides it to also repoint its input ports.
func (b *base) Reroute(routes *routing.Table) { b.row = routes.Row(b.node) }

// overflow guards a receive against a full input buffer, which only an
// injected credit-duplication fault can produce (the credit protocol
// otherwise forbids it). With a checker armed the flit is reported and
// swallowed (returns true); unarmed, the FIFO's own push panic fires, as a
// full buffer then really is a simulator bug.
func (b *base) overflow(p noc.Port, f *noc.Flit, cycle int64, free int) bool {
	if free > 0 || b.check == nil {
		return false
	}
	b.check.Overflow(cycle, int(b.node), int(p), f.ID)
	b.arena.Release(f)
	return true
}

// auditMasks is the tail of every Audit: the staged-input mask, which must
// be zero between steps, then the masks a router caches against the same
// masks recomputed from a port scan.
func (b *base) auditMasks(names string, cached, scanned [4]uint32) error {
	if b.staged != 0 {
		return fmt.Errorf("router %d: staged-input mask is %#b between steps: a flit was staged and never latched", b.node, b.staged)
	}
	if cached != scanned {
		return fmt.Errorf("router %d: masks %s are %#b, a port scan says %#b", b.node, names, cached, scanned)
	}
	return nil
}

// flitSink is the ingress side every architecture implements: deliver a flit
// and its routing header into input port p.
type flitSink interface {
	receive(p noc.Port, f *noc.Flit, h noc.Header, cycle int64)
}

// portReceiver adapts (router, port) to noc.Receiver.
type portReceiver struct {
	r    flitSink
	port noc.Port
}

// Receive forwards the delivered flit to the router's input port, with the
// header read off the flit (a hand-driven link delivers the flit alone).
func (pr *portReceiver) Receive(f *noc.Flit, cycle int64) {
	pr.r.receive(pr.port, f, f.Header(), cycle)
}
