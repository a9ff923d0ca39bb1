package network

import (
	"fmt"
	"runtime"

	"repro/internal/arbiter"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// Config parameterizes one physical network.
//
// Packets: every network recycles its packets (see noc.PacketSlab), so the
// *noc.Packet that Inject returns and OnDeliver receives is valid until that
// packet's OnDeliver returns; the slot is reused once its last owner lets go
// (see noc.Owner).
type Config struct {
	// Topo is the router-grid shape; the paper evaluates 8x8 (Table 1).
	Topo noc.Topology
	// Concentration is the number of cores per router (default 1, the
	// paper's mesh; 4 builds the radix-8 concentrated mesh of the
	// future-work study).
	Concentration int
	// Arch selects the router microarchitecture for every node.
	Arch router.Arch
	// BufferDepth is the per-input FIFO depth in flits (default 4, Table 1).
	BufferDepth int
	// SinkDepth is the ejection interface buffer depth (default 16; the
	// sink drains a flit per cycle so it never fills in practice). Depth 1
	// is rejected by Validate.
	SinkDepth int
	// NewArbiter overrides the per-output arbiter (default round-robin).
	NewArbiter func(n int) arbiter.Arbiter
	// Probe, when non-nil, records flit-level trace events and per-router
	// metrics for this network. Nil disables all instrumentation at zero
	// cost on the simulation hot path. A probed network runs serially.
	Probe *probe.Probe
	// Shards selects the execution mode: 0 picks automatically (see
	// AutoShards; always serial with Probe or Oracle), 1 forces the serial
	// kernel, and N >= 2 partitions the mesh into N spatial shards stepped
	// by a persistent worker pool (refused with Probe or Oracle). Results
	// are bit-identical at every shard count; call Close on the network when
	// done so the workers are released.
	Shards int
	// Check, when non-nil, arms the runtime invariant layer on this network:
	// the delivery oracle validates every packet at its interface, protocol
	// violations (which injected faults make legitimately reachable) are
	// recorded instead of panicking, and CheckInvariants runs the post-drain
	// conservation checks. Nil costs nothing on the hot path.
	Check *check.Checker
	// Fault, when non-nil, injects channel-level faults
	// (internal/fault.Injector); it is bound to this network's link sites at
	// construction. Requires Check — running faults without the lenient
	// checker paths would panic sharded worker goroutines. When the injector
	// also implements HardFaulter and declares permanent faults, the network
	// arms fault-aware rerouting with reconfiguration epochs (see
	// hardfault.go).
	Fault FaultInjector
	// Retransmit, when non-nil, arms end-to-end retransmission at the
	// network interfaces: unacknowledged packets are re-sent from their
	// sources with bounded retries and cycle-domain exponential backoff,
	// and packets that exhaust the budget are retired as undeliverable.
	// Nil costs a single pointer test on the hot path.
	Retransmit *RetransmitConfig
	// Oracle arms the kernel's quiescence contract oracle, the reference
	// stepper every faster walk is tested against: every component is
	// evaluated eagerly every cycle through the generic interface walk, and
	// any component the quiescence rules would have parked is state-hashed
	// around its evaluation — a hash change means the component lied about
	// being parkable (its Quiet broke the purity contract) and the step
	// panics with the offender. Debug/contract-test mode: serial execution
	// only, and far slower than the lane walk (a full state serialization
	// per parked component per cycle).
	Oracle bool
	// Observer, when non-nil, is installed as an additional kernel observer
	// (after the probe's sampler): it fires at the end of every stepped or
	// fast-forwarded cycle with the active-component count. The telemetry
	// sampler (internal/telemetry) hangs its live cycles/s and activity
	// gauges here. Same contract as sim.Kernel.AddObserver.
	Observer func(cycle int64, active int)
}

// FaultInjector is the contract between a network and a fault-injection
// backend. internal/fault.Injector implements it; the indirection keeps the
// dependency arrow pointing from fault to network's peers rather than into
// this package's construction path.
type FaultInjector interface {
	noc.Tamperer
	// BindSites is called once at construction with the network's channel
	// count; site indices passed to the Tamperer methods are [0, n).
	BindSites(n int)
	// CreditDelta returns the net credit change faults applied at a site,
	// offsetting the post-drain credit conservation check.
	CreditDelta(site int) int
	// Impacted reports whether a fault fired that may corrupt or prevent
	// delivery of the packet; the delivery oracle treats missing impacted
	// packets as accounted-for rather than lost.
	Impacted(id uint64) bool
	// Leaky reports whether a fired fault may have leaked pooled flit
	// objects, disabling the arena-exactness check.
	Leaky() bool
}

func (c *Config) fill() {
	if c.Topo.Width <= 0 || c.Topo.Height <= 0 {
		c.Topo = noc.Topology{Width: 8, Height: 8}
	}
	if c.Concentration <= 0 {
		c.Concentration = 1
	}
	if c.BufferDepth <= 0 {
		c.BufferDepth = 4
	}
	if c.SinkDepth <= 0 {
		c.SinkDepth = 16
	}
}

// AutoShards picks the worker-shard count for a mesh with the given router
// count: the crossover heuristic behind Config.Shards == 0. Meshes below
// 24x24 (576 routers) and single-CPU hosts stay serial; larger meshes get
// roughly one shard per 64 routers, capped at GOMAXPROCS — beyond that the
// phase barrier cannot spin and sharding loses to serial at every size.
//
// The crossover is where the default measurably paid for the CPUs it takes
// when it was set (the since-deleted BenchmarkNetworkCycleLarge, 2000 warmed
// cycles, 2 CPUs, loaded NoX cycle, serial vs two shards): 16x16 34-37 vs
// 28-62 us — 1.1x at best and a loss at worst, for twice the CPU, which a parallel sweep would
// rather spend on another cell; 24x24 110 vs 80 us; 32x32 328-336 vs 176-183
// us. The per-port router records since made the serial step ~30 % cheaper
// and the sharded one ~10 %: 24x24 now reads 82-85 vs 78 us (a tie) and
// 32x32 229-241 vs 154-164 us (1.45x), so the crossover is due a re-measure
// upward; it is left where it was because moving it is a policy change of
// its own. The live rig is the repo benchmark's network.shard_speedup.mesh32
// (benchmark/, serial vs AutoShards on a loaded 32x32 NoX mesh).
func AutoShards(routers int) int {
	procs := runtime.GOMAXPROCS(0)
	if routers < 576 || procs == 1 {
		return 1
	}
	return min(routers/64, procs)
}

// shardLocal is the state one shard's worker writes while stepping: its
// share of the power accounting (folded on Counters calls), the arena
// pooling every flit it materializes — all allocation and recycling is
// worker-local; flits migrate between arenas, so only the summed Outstanding
// is meaningful (see ArenaOutstanding) — and the deliveries it staged for the
// epilogue. The trailing pad keeps two shards' blocks off each other's cache
// lines and off the neighbouring line the hardware prefetcher pairs with
// them: back to back, shard 1's BufWrite/BufRead/Xbar share a line with
// shard 0's Collisions..OutputActive, and bouncing it on every flit hop
// costs a fifth of a 32x32 cycle.
type shardLocal struct {
	counters power.Counters
	arena    noc.Arena
	// links is what every channel latched by this shard shares (see
	// noc.LinkEnv): the kernel, the fault injector and this shard's arena.
	links   noc.LinkEnv
	mailbox []delivery
	_       [128]byte
}

// delivery is one completed packet staged by a shard worker for the step
// epilogue, which replays deliveries in interface order — the order the
// serial kernel's NI walk would have completed them in — or, with release
// set, a packet its interface let go of that may have no owner left (see
// NI.letGo).
type delivery struct {
	p       *noc.Packet
	ni      int32
	release bool
}

// Network is a complete mesh NoC: routers, network interfaces, and the
// links between them, advanced in lockstep cycles. The kernel steps routers
// and interfaces; a link is state of the component at its sink end.
type Network struct {
	cfg      Config
	sys      noc.System
	kernel   *sim.Kernel
	routes   *routing.Table
	routers  []router.Router
	nis      []*NI
	niHandle []sim.Handle
	probe    *probe.Probe

	// Shard state; a serial network is one shard. shardOfNode maps router
	// nodes to contiguous spatial shards (all 0 on a serial network);
	// routers and NIs belong to their own node's shard, and a channel is
	// latched by its sink, which keeps every commit-phase write inside one
	// shard. local holds what each shard's worker writes while stepping;
	// mailHeads is the sharded epilogue's merge scratch.
	shards      int
	shardOfNode []int32
	local       []shardLocal
	aggCounters power.Counters
	mailHeads   []int

	// links is every channel in site order (the fault-injection site
	// numbering and the credit conservation walk).
	links []*noc.Link

	check *check.Checker
	fault FaultInjector

	// Permanent-fault state (see hardfault.go). hard is non-nil only when
	// the injector declares hard faults; sites mirrors links in site order.
	// faultKey/curFaults identify the fault set the active route table was
	// built for; killCursor is the epoch observer's cursor into the
	// scheduled kills. All untouched on fault-free runs.
	hard           HardFaulter
	sites          []noc.LinkSite
	faultKey       string
	curFaults      routing.FaultSet
	killCursor     int
	epochs         int64
	lastEpochCycle int64
	undeliverable  int64

	// rel is the end-to-end retransmission state, nil when disarmed (see
	// reliability.go).
	rel *relState

	// store is the storage every slice above is carved from, handed to the
	// next network of this shape at Close (see storage.go); nil once closed.
	store *storage

	// packets is the store every packet this network carries is drawn from
	// and returned to when its last owner lets go (see noc.Owner): the
	// network until retirement (see retire), the source and destination
	// interfaces, an open retransmission entry.
	packets noc.PacketSlab

	nextPacketID uint64
	injected     int64
	delivered    int64

	// OnDeliver, when set, observes every completed packet at its delivery
	// cycle (after DeliverCycle is stamped). Sharded runs invoke it from
	// the step epilogue on the stepping goroutine, in the same
	// interface-order sequence as serial runs. p is valid until OnDeliver
	// returns: the network then recycles its slot (see noc.PacketSlab), so
	// copy what outlives the call instead of keeping the pointer.
	OnDeliver func(p *noc.Packet, cycle int64)
	// OnReconfigure, when set, observes every reconfiguration epoch with
	// the cycle it ran at and the permanent-fault set it rerouted around.
	// Runs on the stepping goroutine; the flight recorder's reconfiguration
	// trigger hangs here.
	OnReconfigure func(cycle int64, fs routing.FaultSet)
}

// New builds and wires a network, panicking on an invalid configuration.
// Build is the error-returning form for configurations from user input.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg.fill()
	sys := noc.System{Grid: cfg.Topo, Concentration: cfg.Concentration}
	sys.Validate()
	routers := sys.Routers()
	cores := sys.Cores()

	shards := cfg.Shards
	switch {
	case shards == 0 && (cfg.Probe != nil || cfg.Oracle):
		shards = 1 // probed and oracle networks run serially
	case shards == 0:
		shards = AutoShards(routers)
	}
	if shards > routers {
		shards = routers
	}
	sharded := shards > 1

	// Every slice below is carved from the storage of the network's shape:
	// a closed network's, scrubbed, when one waits on the free list, else new
	// (see storage.go).
	st := acquire(shape{cfg.Topo, cfg.Concentration, cfg.Arch, cfg.BufferDepth, cfg.SinkDepth, shards})
	n := &Network{
		cfg:            cfg,
		sys:            sys,
		kernel:         &st.kernel,
		probe:          cfg.Probe,
		shards:         shards,
		lastEpochCycle: -1,
		store:          st,
		packets:        st.packets,
	}

	// Fault binding happens before any router is built: a campaign with
	// permanent faults may declare sites dead from cycle 0, and the routers
	// must be constructed against the route table for the surviving
	// topology, not rerouted after the fact.
	st.sites = buildSites(sys, st.sites[:0])
	n.sites = st.sites
	n.check = cfg.Check
	n.fault = cfg.Fault
	if n.fault != nil {
		n.fault.BindSites(len(n.sites))
		if hf, ok := n.fault.(HardFaulter); ok && hf.HardArmed() {
			hf.BindTopology(sys, n.sites)
			n.hard = hf
		}
	}
	n.routes = routing.SharedSystemTable(sys)
	if n.hard != nil {
		fs := n.hard.FaultSet(0)
		n.faultKey = fs.Key()
		n.curFaults = fs
		if !fs.Empty() {
			n.routes = routing.SharedFaultTable(sys, fs)
		}
	}
	if cfg.Retransmit != nil {
		n.rel = newRelState(*cfg.Retransmit)
	}

	if n.probe != nil {
		n.probe.Attach(cfg.Topo.Width, cfg.Topo.Height, sys.Ports(), cores, cfg.BufferDepth)
	}

	// Each shard has its own power counters (folded by Counters) and arena,
	// so workers never write shared state; a component uses its node's.
	n.local = carve(&st.local, shards)
	n.shardOfNode = carve(&st.shardOfNode, routers)
	for id := range n.shardOfNode {
		// Contiguous row-major node ranges: spatially coherent tiles with
		// balanced sizes at any shard count.
		n.shardOfNode[id] = int32(id * shards / routers)
	}
	if sharded {
		n.mailHeads = carve(&st.mailHeads, shards)
	}

	n.routers = carve(&st.routers, routers)
	n.nis = carve(&st.nis, cores)

	// One batch allocator for every router: their ports, FIFOs, scratch
	// vectors, and arbiters are carved from one exactly sized block each.
	if st.slabs == nil {
		st.slabs = router.NewSlabs(cfg.Arch, sys.Ports(), cfg.BufferDepth, routers)
	}
	for id := 0; id < routers; id++ {
		n.routers[id] = router.New(router.Config{
			Arch:        cfg.Arch,
			Node:        noc.NodeID(id),
			Routes:      n.routes,
			BufferDepth: cfg.BufferDepth,
			Counters:    &n.local[n.shardOfNode[id]].counters,
			Ports:       sys.Ports(),
			NewArbiter:  cfg.NewArbiter,
			Probe:       n.probe,
			Arena:       n.arenaOf(id),
			Slabs:       st.slabs,
			Check:       cfg.Check,
		})
	}
	// Network interfaces come from one slab, their sink rings from another,
	// and all share one all-Local route row (every flit reaching a sink
	// ejects locally).
	niSlab := carve(&st.niSlab, cores)
	localRow := carve(&st.localRow, cores)
	for c := range localRow {
		localRow[c] = noc.Local
	}
	sinkSl := buffer.SlotsFor(cfg.SinkDepth)
	sinkSlots := carve(&st.sinkSlots, cores*sinkSl)
	for c := 0; c < cores; c++ {
		home := int(sys.RouterOf(noc.NodeID(c)))
		ni := &niSlab[c]
		ni.init(noc.NodeID(c), n, cfg.SinkDepth, sinkSlots[c*sinkSl:(c+1)*sinkSl:(c+1)*sinkSl], localRow, n.arenaOf(home))
		ni.counters = &n.local[n.shardOfNode[home]].counters
		ni.probe = n.probe
		if cfg.Check != nil {
			// Armed: ejection-side decode corruption becomes a reported
			// violation instead of a panic.
			ni.sink.SetLenient(true)
		}
		ni.shard = n.shardOfNode[home]
		n.nis[c] = ni
	}

	// Components compute/commit in registration order: routers, then NIs. The
	// one commit-order dependence is a router handing credits back to the
	// interface of its own tile (see noc.Link.ReturnCredits), and the router
	// comes first in every walk; the sharded executor keeps a tile's router
	// and interfaces in one shard, so all commit-phase writes stay
	// shard-local.
	n.kernel.Reserve(routers + cores)
	var shardOf []int
	if sharded {
		shardOf = carve(&st.shardOf, routers+cores)[:0]
	}
	routerHandle := carve(&st.routerHandle, routers)
	for id := 0; id < routers; id++ {
		routerHandle[id] = n.kernel.Add(n.routers[id])
		if sharded {
			shardOf = append(shardOf, int(n.shardOfNode[id]))
		}
	}
	n.niHandle = carve(&st.niHandle, cores)
	for c := 0; c < cores; c++ {
		n.niHandle[c] = n.kernel.Add(n.nis[c])
		if sharded {
			shardOf = append(shardOf, int(n.nis[c].shard))
		}
	}

	// Channels are not kernel components: each is a record its sink latches
	// at the end of its own commit. All of them come from one value slab — 2
	// directed links per grid adjacency plus an injection and an ejection
	// channel per core — carved by sink: a tile's block holds the channels
	// entering its router in input-port order, then the ejection channel of
	// each of its interfaces, so a router's latch walks one short run of
	// memory. n.links keeps them in site order, which is by driver.
	dirs := [...]noc.Port{noc.North, noc.East, noc.South, noc.West}
	// wiredBelow counts node's direction ports below p that have a neighbour.
	wiredBelow := func(node int, p noc.Port) int {
		k := 0
		for _, q := range dirs {
			if _, ok := cfg.Topo.Neighbor(noc.NodeID(node), q); ok && q < p {
				k++
			}
		}
		return k
	}
	tileBase := carve(&st.tileBase, routers+1)
	for id := 0; id < routers; id++ {
		tileBase[id+1] = tileBase[id] + wiredBelow(id, noc.Local) + 2*sys.Concentration
	}
	linkCount := tileBase[routers]
	linkSlab := carve(&st.linkSlab, linkCount)
	// inSlot is the slab slot of the channel entering router node at port p.
	inSlot := func(node int, p noc.Port) int {
		if p < noc.Local {
			return tileBase[node] + wiredBelow(node, p)
		}
		return tileBase[node] + wiredBelow(node, noc.Local) + int(p-noc.Local)
	}
	// Each link learns the handle of the component owning its sink, so a Send
	// tells the kernel a parked consumer has input, and — injection channels
	// only — the handle of the interface driving it, so a credit count
	// lifting off zero re-activates a producer parked on backpressure. What
	// the channels of one sink shard have in common — kernel, injector, the
	// arena a flit dropped at the latch is released to, the probe — they
	// share through that shard's LinkEnv.
	for i := range n.local {
		env := &n.local[i].links
		env.Waker, env.Arena, env.Probe = n.kernel, &n.local[i].arena, n.probe
		if n.fault != nil { // a nil FaultInjector must stay a nil Tamperer
			env.Tamper = n.fault
		}
	}
	// crossFed reports whether a neighbour of router node steps on another
	// shard: two workers then raise bits of its staged-input mask in one
	// compute phase, so every Send into it is atomic (noc.Link.Bind); every
	// other sink's senders share its shard.
	crossFed := func(node int) bool {
		for _, p := range dirs {
			if nb, ok := cfg.Topo.Neighbor(noc.NodeID(node), p); ok && n.shardOfNode[nb] != n.shardOfNode[node] {
				return true
			}
		}
		return false
	}
	links := carve(&st.links, linkCount)[:0]
	// newLink builds the channel in slab slot `slot` that sinkNode's shard
	// latches; probeNode/probePort name its driver in probe events.
	newLink := func(slot int, credits int, sinkH, srcH sim.Handle, sinkNode, probeNode, probePort int) *noc.Link {
		l := &linkSlab[slot]
		l.Init(credits)
		// Routers hold handles [0, routers); an interface's one input comes
		// from its home router, on its own shard.
		shared := int(sinkH) < routers && crossFed(sinkNode)
		l.Bind(&n.local[n.shardOfNode[sinkNode]].links, len(links), int(sinkH), int(srcH), shared)
		l.SetProbeID(probeNode, probePort)
		links = append(links, l)
		return l
	}
	for id := 0; id < routers; id++ {
		r := n.routers[id]
		// Inter-router channels.
		for _, p := range dirs {
			nb, ok := cfg.Topo.Neighbor(noc.NodeID(id), p)
			if !ok {
				continue
			}
			dst, in := n.routers[nb], p.Opposite()
			l := newLink(inSlot(int(nb), in), cfg.BufferDepth, routerHandle[nb], -1, int(nb), id, int(p))
			r.SetOutputLink(p, l)
			dst.SetInputLink(in, l)
		}
		// Local ports: one injection and one ejection link per core.
		for k := 0; k < sys.Concentration; k++ {
			coreID := sys.CoreID(noc.NodeID(id), k)
			port := sys.LocalPort(coreID)
			ni := n.nis[coreID]
			inj := newLink(inSlot(id, port), cfg.BufferDepth, routerHandle[id], n.niHandle[coreID], id, int(coreID), -1)
			ni.injectLink = inj
			r.SetInputLink(port, inj)
			ej := newLink(inSlot(id, port)+sys.Concentration, cfg.SinkDepth, n.niHandle[coreID], -1, id, id, int(port))
			r.SetOutputLink(port, ej)
			ni.ejectLink = ej
		}
	}
	n.links = links
	if len(links) != linkCount {
		panic(fmt.Sprintf("network: wired %d links, slab sized for %d", len(links), linkCount))
	}
	if len(n.sites) != len(links) {
		panic(fmt.Sprintf("network: site table built %d sites for %d links", len(n.sites), len(links)))
	}
	if cfg.Oracle {
		n.kernel.SetOracle(func(h sim.Handle) uint64 {
			// The channels a component owns are a run of the slab: a
			// router's inputs lead its tile's block, and each interface's
			// ejection channel follows them.
			if i := int(h); i < routers {
				return n.oracleHash(h, linkSlab[tileBase[i]:tileBase[i+1]-sys.Concentration])
			}
			core := noc.NodeID(int(h) - routers)
			ej := tileBase[sys.RouterOf(core)+1] - sys.Concentration + int(sys.LocalPort(core)-noc.Local)
			return n.oracleHash(h, linkSlab[ej:ej+1])
		})
	}
	if sharded {
		n.kernel.SetSharding(shards, shardOf)
		n.kernel.SetEpilogue(n.drainShardMail)
	}
	n.bindLanes()
	// Recovery observers run first: the reconfiguration epoch rebuilds
	// routes before the probe samples the cycle, and the retransmission
	// observer after it sees the post-epoch table.
	if n.hard != nil {
		n.kernel.AddObserver(n.epochTick)
	}
	if n.rel != nil {
		n.kernel.AddObserver(n.relTick)
	}
	if n.probe != nil {
		n.kernel.AddObserver(n.probe.Tick)
	}
	if cfg.Observer != nil {
		n.kernel.AddObserver(cfg.Observer)
	}
	return n
}

// bindLanes gives every shard typed lanes over its own components, which
// devirtualize the step's dispatch: its routers, then its interfaces. Each is
// a contiguous handle range (routers at [0, R), interfaces at [R, R+C);
// shardOfNode is monotone and cores are numbered by home router), so a lane
// is a sub-slice; every shard owns at least one router, since shards <= R.
func (n *Network) bindLanes() {
	r, c := 0, 0
	for s := int32(0); s < int32(n.shards); s++ {
		r0, c0 := r, c
		for r < len(n.routers) && n.shardOfNode[r] == s {
			r++
		}
		for c < len(n.nis) && n.nis[c].shard == s {
			c++
		}
		n.kernel.BindLane(int(s), sim.Handle(r0), router.NewLane(n.routers[r0:r]))
		n.kernel.BindLane(int(s), sim.Handle(len(n.routers)+c0), niLane(n.nis[c0:c]))
	}
}

// oracleHash serializes one component's committed state — its own, and the
// credit counts of the channels it owns as their sink — and folds it to a
// 64-bit FNV-1a digest: the state fingerprint the kernel's debug oracle
// compares around the evaluation of notionally parked components. Handles
// map to components by construction order: routers, then interfaces (the
// same ranges the typed lanes bind).
func (n *Network) oracleHash(h sim.Handle, owned []noc.Link) uint64 {
	e := codec.NewEncoder()
	if i, r := int(h), len(n.routers); i < r {
		if err := n.routers[i].SaveState(e); err != nil {
			panic(fmt.Sprintf("network: oracle hash of router %d: %v", i, err))
		}
	} else {
		n.nis[i-r].SaveState(e)
	}
	for i := range owned {
		e.Int(owned[i].Credits())
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	hash := uint64(offset64)
	for _, b := range e.Bytes() {
		hash ^= uint64(b)
		hash *= prime64
	}
	return hash
}

// drainShardMail is the sharded step epilogue: it replays the deliveries
// the shards staged this cycle in interface order (the order the serial NI
// walk completes them in), puts the slots interfaces let go of that nothing
// holds any more (two interfaces letting go in one cycle stage a slot twice,
// hence the Recycled test). Runs on the stepping goroutine after the
// cycle's last barrier.
func (n *Network) drainShardMail(cycle int64) {
	total := 0
	for s := range n.local {
		n.mailHeads[s] = 0
		total += len(n.local[s].mailbox)
	}
	if total == 0 {
		return
	}
	// Each shard's mailbox is already in ascending interface order (its
	// worker walks NIs in registration order, one delivery per NI per
	// cycle), so a k-way min pick reproduces the global order.
	for ; total > 0; total-- {
		best := -1
		var bestNI int32
		for s := range n.local {
			h := n.mailHeads[s]
			if h >= len(n.local[s].mailbox) {
				continue
			}
			if ni := n.local[s].mailbox[h].ni; best < 0 || ni < bestNI {
				best, bestNI = s, ni
			}
		}
		d := n.local[best].mailbox[n.mailHeads[best]]
		n.mailHeads[best]++
		if !d.release {
			n.deliver(d.p, cycle)
		} else if !d.p.Owned() && !d.p.Recycled() {
			n.packets.Put(d.p)
		}
	}
	for s := range n.local {
		n.local[s].mailbox = n.local[s].mailbox[:0]
	}
}

// Probe returns the attached observability probe, nil when disabled.
func (n *Network) Probe() *probe.Probe { return n.probe }

// Topology returns the router-grid shape.
func (n *Network) Topology() noc.Topology { return n.cfg.Topo }

// System returns the (possibly concentrated) system description.
func (n *Network) System() noc.System { return n.sys }

// Cores returns the number of network endpoints.
func (n *Network) Cores() int { return n.sys.Cores() }

// Arch returns the router architecture.
func (n *Network) Arch() router.Arch { return n.cfg.Arch }

// Counters returns the network's event counters: each call folds the
// per-shard blocks into a snapshot, which the next call overwrites (callers
// dereference it at once to window counters). Only call between steps.
func (n *Network) Counters() *power.Counters {
	n.aggCounters = power.Counters{}
	for i := range n.local {
		n.aggCounters.Add(n.local[i].counters)
	}
	return &n.aggCounters
}

// Shards returns the resolved worker-shard count (1 = serial execution).
func (n *Network) Shards() int { return n.shards }

// Close ends the network: it stops the sharded worker pool and hands the
// network's storage to the next network of its shape, which is carved from it
// as from new memory (DESIGN §2, "Network storage"). A network must not be
// used after Close: Step, Inject and FastForwardIdle panic, and the rest of
// its state is gone. Close is idempotent, and safe after a Step that
// panicked and was recovered — the storage of such a network is dropped,
// not handed on.
func (n *Network) Close() {
	st := n.store
	if st == nil {
		return
	}
	n.kernel.Close()
	panicked := n.kernel.Stepping()
	st.packets = n.packets
	*n = Network{cfg: n.cfg, sys: n.sys, shards: n.shards}
	if !panicked {
		release(st)
	}
}

// mustBeOpen panics when the network is used after Close: its storage may
// already carry another network.
func (n *Network) mustBeOpen(op string) {
	if n.store == nil {
		panic("network: " + op + " after Close")
	}
}

// Idle reports that every component is quiescent, so cycles advance
// without any evaluation until the next injection.
func (n *Network) Idle() bool { return n.kernel.Idle() }

// FastForwardIdle advances the clock up to limit cycles in bulk while the
// network is fully quiescent, returning the cycles advanced (0 if busy).
// Probe sampling still observes every skipped cycle, so probed output is
// identical to stepping. With hard faults or retransmission armed, cycles
// on which a scheduled kill boundary or retransmission event lands are
// stepped rather than skipped (their observers may wake components), and
// the advance stops early if such a step re-activates the network.
func (n *Network) FastForwardIdle(limit int64) int64 {
	n.mustBeOpen("FastForwardIdle")
	if n.hard == nil && n.rel == nil {
		return n.kernel.FastForward(limit)
	}
	return n.fastForward(limit)
}

// Cycle returns the current cycle number.
func (n *Network) Cycle() int64 { return n.kernel.Cycle() }

// Kernel exposes the network's simulation kernel for read-only inspection
// (ActiveComponents). Stepping or mutating it directly bypasses the
// network's own sequencing.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Step advances the network one cycle.
func (n *Network) Step() {
	n.mustBeOpen("Step")
	n.kernel.Step()
}

// Inject creates a packet from src to dst with the given flit count and
// queues it at src's interface in the current cycle. The returned packet is
// for bookkeeping at creation (a collector's OnCreate) and is valid until its
// OnDeliver returns — read latencies there, not from a kept pointer. Invalid
// packets panic; InjectChecked is the error-returning form for endpoints from
// user input.
func (n *Network) Inject(src, dst noc.NodeID, length int, class int) *noc.Packet {
	p, err := n.InjectChecked(src, dst, length, class)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// deliver completes a packet: accounting, the checker's oracle, the
// retransmission ack, the caller's observer — and then its retirement. On the
// stepping goroutine in both the serial walk and the sharded epilogue.
func (n *Network) deliver(p *noc.Packet, cycle int64) {
	n.delivered++
	n.check.OnDeliver(cycle, p.ID)
	if n.rel != nil {
		n.relDelivered(p, cycle)
	}
	if n.OnDeliver != nil {
		n.OnDeliver(p, cycle)
	}
	n.retire(p)
}

// retire is the one place a packet's life in the network closes, entered
// exactly once per packet: from its delivery, or from markUndeliverable. It
// ends the network's hold on the slot, which goes back to the slab unless an
// interface or a retransmission entry still holds it (DESIGN §7).
func (n *Network) retire(p *noc.Packet) { n.packets.Release(p, noc.OwnedByNetwork) }

// Outstanding returns the number of injected packets neither delivered nor
// retired as undeliverable — the count a drain must bring to zero.
func (n *Network) Outstanding() int64 { return n.injected - n.delivered - n.undeliverable }

// ArenaOutstanding returns the number of pooled flits currently live inside
// the simulation, summed over every shard arena (individual arenas can go
// negative as flits migrate between shards). After a successful Drain it must
// be zero — the leak invariant the network tests assert: every flit the
// datapath materializes is recycled exactly once. Only call between steps.
func (n *Network) ArenaOutstanding() int {
	total := 0
	for i := range n.local {
		total += n.local[i].arena.Outstanding()
	}
	return total
}

// Injected returns the total packets accepted by Inject so far.
func (n *Network) Injected() int64 { return n.injected }

// Delivered returns the total packets delivered so far.
func (n *Network) Delivered() int64 { return n.delivered }

// QueueLen returns the source-queue depth at a node.
func (n *Network) QueueLen(node noc.NodeID) int { return n.nis[node].QueueLen() }

// Drain runs the network without new traffic until every injected packet is
// delivered or limit additional cycles elapse; it reports whether the
// network fully drained. A fully quiescent network with packets still
// outstanding is wedged (no evaluation can ever deliver them), so Drain
// jumps the clock to the deadline instead of stepping empty cycles.
func (n *Network) Drain(limit int64) bool {
	deadline := n.Cycle() + limit
	for n.Outstanding() > 0 && n.Cycle() < deadline {
		if n.kernel.Idle() {
			if n.FastForwardIdle(deadline-n.Cycle()) == 0 {
				break
			}
			continue
		}
		n.Step()
	}
	return n.Outstanding() == 0
}
