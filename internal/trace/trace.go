// Package trace synthesizes the application traffic of §5.2.
//
// The paper replays captured SPLASH-2/SPEC/TPC traces from a 64-core
// cache-coherent CMP onto two 64-bit physical wormhole networks (request
// and reply classes isolated for protocol deadlock freedom, Table 1), with
// packet events injected open-loop at their CPU-domain timestamps. Those
// traces are proprietary captures; as documented in DESIGN.md, this package
// substitutes a synthetic coherence-trace generator parameterized by
// published workload characteristics. Replay remains open-loop and
// identical in the time domain across router architectures — the property
// the paper's Figures 10 and 11 rely on ("keeping CPU injection bandwidth
// constant across all interconnection networks").
//
// The generated protocol events follow a directory-based MSI-style flow on
// Table 1's packet sizes (8 B control = 1 flit, 72 B data = 9 flits):
//
//	read miss:   core -> home REQ (1 flit, net 0); home -> core DATA
//	             (9 flits, net 1) after the memory latency
//	write miss:  as read; when the line is shared, the home first sends
//	             INV (1 flit, net 0) to each sharer, which acks
//	             (1 flit, net 1)
//	upgrade:     write hit on a shared line: control REQ, sharer
//	             invalidations/acks, control GRANT — no data transfer
//	writeback:   core -> home WB (9 flits, net 0); home -> core ACK
//	             (1 flit, net 1)
//
// Upgrades and invalidation chatter keep single-flit control packets the
// majority of packets, as §2.7 observes for cache-coherent systems.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/noc"
	"repro/internal/sim"
)

// CPU-domain timing constants (Table 1: 3 GHz in-order cores, 100-cycle
// memory latency).
const (
	// CPUCyclePs is the processor clock period (3 GHz).
	CPUCyclePs = 333
	// MemLatencyCycles is the memory/L2 service latency in CPU cycles.
	MemLatencyCycles = 100
	// DirLatencyCycles is the directory lookup latency before
	// invalidations issue.
	DirLatencyCycles = 30
	// InvAckCycles is the sharer's turnaround for an invalidation ack.
	InvAckCycles = 15
	// MaxCPUCycles is the longest trace whose event times, at most
	// MemLatencyCycles past its last transaction, fit an int64 of
	// picoseconds.
	MaxCPUCycles = math.MaxInt64/CPUCyclePs - MemLatencyCycles
)

// Packet lengths in flits (Table 1: 8 B control, 72 B data on 64 b flits).
const (
	ControlFlits = 1
	DataFlits    = 9
)

// Network classes (Table 1: separate request and reply physical networks).
const (
	ClassRequest = 0
	ClassReply   = 1
	NumClasses   = 2
)

// Workload is a per-benchmark traffic profile. The numbers are set from
// published characterizations of the SPLASH-2 scientific codes and
// commercial (SPECjbb/TPC-C class) workloads: misses per kilo-cycle,
// read/write mix, sharing behavior, and home-node locality.
type Workload struct {
	Name string
	// TransPerKCycle is the mean coherence transactions initiated per 1000
	// CPU cycles per core.
	TransPerKCycle float64
	// ReadFrac is the fraction of misses that are reads.
	ReadFrac float64
	// WritebackFrac is the fraction of transactions that are dirty
	// writebacks (9-flit requests).
	WritebackFrac float64
	// UpgradeFrac is the fraction of transactions that are upgrades
	// (write permission on a cached shared line): control-only exchanges.
	UpgradeFrac float64
	// ShareFrac is the fraction of write misses hitting shared lines
	// (triggering invalidations).
	ShareFrac float64
	// MeanSharers is the mean number of sharers invalidated.
	MeanSharers float64
	// LocalityLambda shapes home-node selection: P(home at distance d) is
	// proportional to exp(-d/lambda). Zero selects uniformly random homes
	// (address-interleaved, typical for commercial workloads).
	LocalityLambda float64
	// HotEventsPerKCycle is the rate of lock/barrier contention events per
	// 1000 CPU cycles: a handful of cores miss on the same contended line
	// almost simultaneously, converging on one home node. Lock-heavy
	// scientific codes and transactional commercial workloads rank high.
	HotEventsPerKCycle float64
	// BurstMean is the mean Pareto burst length in transactions.
	BurstMean float64
}

// Workloads is the evaluated application mix: six SPLASH-2-class scientific
// codes and two commercial workloads, mirroring the paper's "multiple
// scientific and commercial application traces".
var Workloads = []Workload{
	{Name: "barnes", TransPerKCycle: 7.5, ReadFrac: 0.71, WritebackFrac: 0.07, UpgradeFrac: 0.46, ShareFrac: 0.50, MeanSharers: 3.5, LocalityLambda: 3.0, BurstMean: 3, HotEventsPerKCycle: 2.4},
	{Name: "fft", TransPerKCycle: 10.4, ReadFrac: 0.64, WritebackFrac: 0.12, UpgradeFrac: 0.30, ShareFrac: 0.30, MeanSharers: 2.6, LocalityLambda: 4.5, BurstMean: 5, HotEventsPerKCycle: 0.6},
	{Name: "lu", TransPerKCycle: 7.0, ReadFrac: 0.76, WritebackFrac: 0.09, UpgradeFrac: 0.36, ShareFrac: 0.38, MeanSharers: 2.8, LocalityLambda: 2.5, BurstMean: 4, HotEventsPerKCycle: 1.2},
	{Name: "ocean", TransPerKCycle: 12.1, ReadFrac: 0.68, WritebackFrac: 0.14, UpgradeFrac: 0.32, ShareFrac: 0.35, MeanSharers: 2.6, LocalityLambda: 2.0, BurstMean: 6, HotEventsPerKCycle: 1},
	{Name: "radix", TransPerKCycle: 10.4, ReadFrac: 0.58, WritebackFrac: 0.16, UpgradeFrac: 0.28, ShareFrac: 0.22, MeanSharers: 2.2, LocalityLambda: 0, BurstMean: 7, HotEventsPerKCycle: 0.4},
	{Name: "water", TransPerKCycle: 5.6, ReadFrac: 0.78, WritebackFrac: 0.06, UpgradeFrac: 0.42, ShareFrac: 0.46, MeanSharers: 3.2, LocalityLambda: 3.5, BurstMean: 3, HotEventsPerKCycle: 2},
	{Name: "specjbb", TransPerKCycle: 14.5, ReadFrac: 0.66, WritebackFrac: 0.11, UpgradeFrac: 0.42, ShareFrac: 0.50, MeanSharers: 4.2, LocalityLambda: 0, BurstMean: 8, HotEventsPerKCycle: 3},
	{Name: "tpcc", TransPerKCycle: 15.2, ReadFrac: 0.62, WritebackFrac: 0.12, UpgradeFrac: 0.46, ShareFrac: 0.50, MeanSharers: 4.0, LocalityLambda: 0, BurstMean: 9, HotEventsPerKCycle: 3.6},
}

// WorkloadByName returns the named profile.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}

// Event is one packet injection in the CPU time domain.
type Event struct {
	TimePs int64
	Src    noc.NodeID
	Dst    noc.NodeID
	Flits  int
	Class  int
}

// Trace is a complete, time-sorted application trace.
type Trace struct {
	Workload   Workload
	Topo       noc.Topology
	DurationPs int64
	Events     []Event
}

// TotalFlits returns the flit volume of the trace.
func (t *Trace) TotalFlits() int64 {
	var n int64
	for _, e := range t.Events {
		n += int64(e.Flits)
	}
	return n
}

// MeanInjectionMBps returns the trace's average offered bandwidth per node
// in MB/s.
func (t *Trace) MeanInjectionMBps() float64 {
	bytes := float64(t.TotalFlits() * noc.FlitBytes)
	seconds := float64(t.DurationPs) * 1e-12
	return bytes / seconds / float64(t.Topo.Nodes()) / 1e6
}

// Generate synthesizes a deterministic trace of the workload over
// cpuCycles processor cycles on the topology.
func Generate(w Workload, topo noc.Topology, cpuCycles int64, seed uint64) *Trace {
	base := sim.NewRNG(seed ^ hashName(w.Name))
	gen := &generator{w: w, topo: topo, homes: newHomePicker(w, topo, base.Fork(1))}
	gen.events = make([]Event, 0, eventsHint(w, topo, cpuCycles))

	// Each core forks its stream from base in core order, then the storms
	// fork theirs: the draw order every seed's trace is pinned to.
	for core := 0; core < topo.Nodes(); core++ {
		gen.coreEvents(noc.NodeID(core), cpuCycles, base.Fork(uint64(100+core)))
	}
	gen.contentionEvents(cpuCycles, base.Fork(7))
	sortEvents(gen.events)
	return &Trace{Workload: w, Topo: topo, DurationPs: cpuCycles * CPUCyclePs, Events: gen.events}
}

// maxEventsHint caps the up-front event buffer (40 MiB of events): a longer
// trace grows it by appending.
const maxEventsHint = 1 << 20

// eventsHint sizes a trace's event buffer from the profile's rates: about
// three events per transaction and up to sixteen per contention storm.
func eventsHint(w Workload, topo noc.Topology, cpuCycles int64) int {
	kcycles := float64(max(cpuCycles, 0)) / 1000
	n := kcycles * (3*w.TransPerKCycle*float64(topo.Nodes()) + 16*w.HotEventsPerKCycle)
	return int(min(n, maxEventsHint))
}

// sortEvents orders the events by (TimePs, Src, Dst) in place. Ties keep
// the order sort.Slice gives them: slices.SortFunc is the same pdqsort,
// without reflection, and makes the same moves on the same comparison
// outcomes.
func sortEvents(events []Event) {
	slices.SortFunc(events, func(a, b Event) int {
		if a.TimePs != b.TimePs {
			return cmp.Compare(a.TimePs, b.TimePs)
		}
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

type generator struct {
	w      Workload
	topo   noc.Topology
	homes  *homePicker
	events []Event // every event, in generation order
}

// coreEvents generates one core's transactions as Pareto bursts whose
// spacing is solved to meet the profile's transaction rate.
func (g *generator) coreEvents(core noc.NodeID, cpuCycles int64, rng *sim.RNG) {
	w := g.w
	// Mean gap between transactions to achieve TransPerKCycle.
	meanGap := 1000 / w.TransPerKCycle
	// Within a burst transactions are spaced a few CPU cycles apart; the
	// idle gap between bursts absorbs the rest of the budget. Burst length
	// is Pareto-distributed but capped by the MSHR limit: an in-order core
	// cannot have unboundedly many outstanding misses.
	const intraBurstGap = 3
	const mshrLimit = 12
	burstMean := math.Max(w.BurstMean, 1)
	interBurstGap := burstMean * (meanGap - intraBurstGap)

	t := int64(rng.Exp(interBurstGap)) // desynchronize cores
	for t < cpuCycles {
		burst := int(rng.Pareto(1.4, burstMean*0.4/1.4) + 0.5)
		if burst < 1 {
			burst = 1
		}
		if burst > mshrLimit {
			burst = mshrLimit
		}
		for i := 0; i < burst && t < cpuCycles; i++ {
			g.transaction(core, t, rng)
			t += intraBurstGap
		}
		t += int64(rng.Exp(interBurstGap)) + 1
	}
}

// transaction emits the protocol events of one coherence transaction
// starting at CPU cycle tc.
func (g *generator) transaction(core noc.NodeID, tc int64, rng *sim.RNG) {
	w := g.w
	home := g.homes.pick(core, rng)
	ps := func(cycles int64) int64 { return cycles * CPUCyclePs }

	if rng.Bernoulli(w.WritebackFrac) {
		// Dirty writeback: data out, control ack back.
		g.events = append(g.events,
			Event{ps(tc), core, home, DataFlits, ClassRequest},
			Event{ps(tc + MemLatencyCycles), home, core, ControlFlits, ClassReply},
		)
		return
	}

	upgrade := rng.Bernoulli(w.UpgradeFrac)

	// Miss / upgrade request.
	g.events = append(g.events, Event{ps(tc), core, home, ControlFlits, ClassRequest})
	if (upgrade || !rng.Bernoulli(w.ReadFrac)) && rng.Bernoulli(w.ShareFrac) {
		// Write permission on a shared line: invalidate sharers first.
		n := 1 + int(rng.Exp(math.Max(w.MeanSharers-1, 0.01))+0.5)
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			sharer := noc.NodeID(rng.Intn(g.topo.Nodes()))
			if sharer == home || sharer == core {
				continue
			}
			g.events = append(g.events,
				Event{ps(tc + DirLatencyCycles), home, sharer, ControlFlits, ClassRequest},
				Event{ps(tc + DirLatencyCycles + InvAckCycles), sharer, home, ControlFlits, ClassReply},
			)
		}
	}
	if upgrade {
		// Upgrade grant: control only, directory turnaround.
		g.events = append(g.events, Event{ps(tc + DirLatencyCycles + InvAckCycles + DirLatencyCycles), home, core, ControlFlits, ClassReply})
		return
	}
	// Data reply.
	g.events = append(g.events, Event{ps(tc + MemLatencyCycles), home, core, DataFlits, ClassReply})
}

// contentionEvents emits lock/barrier storms: at each event several cores
// send control requests to one contended home within a few cycles and each
// receives a control reply. The convergent single-flit fan-in these create
// is the contention signature that distinguishes the router architectures
// (§3.2): NoX superimposes the colliders productively while the speculative
// designs burn cycles and channel energy resolving them.
func (g *generator) contentionEvents(cpuCycles int64, rng *sim.RNG) {
	w := g.w
	if w.HotEventsPerKCycle <= 0 {
		return
	}
	nodes := g.topo.Nodes()
	count := int(float64(cpuCycles) / 1000 * w.HotEventsPerKCycle)
	for e := 0; e < count; e++ {
		t := int64(rng.Intn(int(cpuCycles)))
		home := noc.NodeID(rng.Intn(nodes))
		k := 4 + rng.Intn(5)
		seen := [9]noc.NodeID{home} // the home and up to 8 distinct cores
		n := 1
		for i := 0; i < k; i++ {
			core := noc.NodeID(rng.Intn(nodes))
			if slices.Contains(seen[:n], core) {
				continue
			}
			seen[n] = core
			n++
			jitter := int64(rng.Intn(3))
			g.events = append(g.events,
				Event{(t + jitter) * CPUCyclePs, core, home, ControlFlits, ClassRequest},
				Event{(t + DirLatencyCycles + int64(2*i)) * CPUCyclePs, home, core, ControlFlits, ClassReply},
			)
		}
	}
}

// homePicker selects L2 home nodes with optional distance-decayed locality.
type homePicker struct {
	topo noc.Topology
	// cdf[src*n : (src+1)*n] is the cumulative weight distribution over
	// the n destinations; nil for uniform selection.
	cdf []float64
}

func newHomePicker(w Workload, topo noc.Topology, rng *sim.RNG) *homePicker {
	hp := &homePicker{topo: topo}
	if w.LocalityLambda <= 0 {
		return hp
	}
	n := topo.Nodes()
	hp.cdf = make([]float64, n*n)
	for src := 0; src < n; src++ {
		cum := hp.cdf[src*n : (src+1)*n]
		total := 0.0
		for dst := 0; dst < n; dst++ {
			if dst != src {
				d := float64(topo.Hops(noc.NodeID(src), noc.NodeID(dst)))
				total += math.Exp(-d / w.LocalityLambda)
			}
			cum[dst] = total
		}
		for i := range cum {
			cum[i] /= total
		}
	}
	return hp
}

func (hp *homePicker) pick(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	if hp.cdf == nil {
		for {
			d := noc.NodeID(rng.Intn(hp.topo.Nodes()))
			if d != src {
				return d
			}
		}
	}
	u := rng.Float64()
	n := hp.topo.Nodes()
	cum := hp.cdf[int(src)*n : (int(src)+1)*n]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if noc.NodeID(lo) == src { // boundary quirk: src carries zero mass
		lo = (lo + 1) % len(cum)
	}
	return noc.NodeID(lo)
}
