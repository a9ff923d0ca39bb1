package harness

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// synthMember is the per-run state of one synthetic-traffic simulation:
// RunSynthetic drives it through the prepare / attach / injectCycle /
// enterDrain / needsDrainStep / finalize sequence, stepping the network
// between calls.
type synthMember struct {
	cfg         SyntheticConfig // filled
	periodNs    float64
	pktRate     float64
	selfSimilar bool
	pattern     traffic.Pattern
	rec         *telemetry.Recorder // the run's flight recorder; nil when disarmed

	net   *network.Network
	col   *stats.Collector
	procs []traffic.Process
	dests []*sim.RNG

	startCounters power.Counters
	window        power.Counters
	total         int64 // warmup + measure cycles
	deadline      int64 // drain deadline, valid after enterDrain
	cancelled     bool  // cfg.cancelled has reported true

	// Sparse-regime lookahead. When lookahead is armed, each traffic process
	// is advanced eagerly with one skip-ahead Next call per arrival — its stream is private per-node state, so
	// consuming future cycles early is stream-exact — and arr[id] holds the
	// node's next injection cycle (total when it has none left in the
	// window). arrMin caches the minimum, so injection-free cycles cost one
	// comparison, and the main loop may jump a fully idle network straight
	// to arrMin. Every member runs it unless cfg.Eager is set.
	lookahead bool
	arr       []int64
	arrMin    int64
}

// prepareSynthetic validates and fills cfg and resolves its traffic
// pattern. The network is built separately (network.Build over netConfig)
// and handed to attach.
func prepareSynthetic(cfg SyntheticConfig) (*synthMember, error) {
	cfg.fill()
	m := &synthMember{cfg: cfg}
	if cfg.PacketFlits < 0 {
		return nil, fmt.Errorf("harness: packet length %d flits: %w", cfg.PacketFlits, network.ErrBadPacket)
	}
	for _, w := range []struct {
		name   string
		cycles int64
	}{{"warm-up", cfg.WarmupCycles}, {"measurement", cfg.MeasureCycles}, {"drain", cfg.DrainCycles}} {
		if w.cycles < 0 {
			return nil, fmt.Errorf("harness: %s window of %d cycles: %w", w.name, w.cycles, ErrCycles)
		}
	}
	var err error
	if m.periodNs, m.pktRate, err = cellRates(&cfg); err != nil {
		return nil, err
	}

	m.selfSimilar = cfg.Pattern == "selfsimilar"
	patName := cfg.Pattern
	if m.selfSimilar {
		patName = "uniform" // the Pareto ON/OFF process picks uniform destinations
	}
	// Patterns are laid out over cores: on a concentrated mesh, over its
	// virtual core grid, translated to and from core ids.
	sys := cfg.system()
	if m.pattern, err = traffic.ByName(patName, sys.VirtualTopology()); err != nil {
		return nil, err
	}
	if sys.Concentration > 1 {
		m.pattern = corePattern{sys, m.pattern}
	}
	m.total = cfg.WarmupCycles + cfg.MeasureCycles

	// Arm the flight recorder. The factory builds one per run with a
	// deterministic label, so sweep workers each dump to their own files.
	// An explicit Probe already records the complete event stream, so
	// recording is skipped.
	if m.cfg.NewRecorder != nil && m.cfg.Probe == nil {
		m.rec = m.cfg.NewRecorder(fmt.Sprintf("%s-%s-%.0fMBps", m.cfg.Arch, m.cfg.Pattern, m.cfg.RateMBps))
	}
	m.rec.SetPeriodNs(m.periodNs)
	m.rec.BindChecker(m.cfg.Check)
	return m, nil
}

// cellRates checks a filled cfg's offered rate and returns its clock period
// and the packets per node-cycle its sources draw at. Runs and a sweep's
// arrival map both take their rates from here. A zero-rate Bernoulli run is
// the legal idle-network configuration; the Pareto ON/OFF source has no
// zero-rate solution for T_off, so a zero self-similar rate is refused.
func cellRates(cfg *SyntheticConfig) (periodNs, pkt float64, err error) {
	if mbps := cfg.RateMBps; mbps < 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return 0, 0, fmt.Errorf("harness: offered rate %v MB/s/node is not a finite non-negative bandwidth: %w", mbps, ErrRateInvalid)
	}
	if cfg.Pattern == "selfsimilar" && cfg.RateMBps == 0 {
		return 0, 0, fmt.Errorf("harness: selfsimilar traffic needs an offered rate above zero: %w", ErrRateInvalid)
	}
	periodNs = datapath(cfg.concentration).ClockPeriodNs(cfg.Arch)
	pkt = FlitsPerNodeCycle(cfg.RateMBps, periodNs) / float64(cfg.PacketFlits)
	if pkt >= 1 {
		return 0, 0, fmt.Errorf("harness: offered rate %.0f MB/s/node exceeds one packet per cycle at %v: %w", cfg.RateMBps, cfg.Arch, ErrRateInfeasible)
	}
	return periodNs, pkt, nil
}

// forkStreams forks every node's arrival and destination generators from
// seed, in the order every run forks them. The streams depend on nothing
// else, so all cells of a sweep draw the same arrivals, the streams the
// sweep's arrival map scans.
func forkStreams(seed uint64, nodes int) (arr, dst []*sim.RNG) {
	base := sim.NewRNG(seed)
	arr, dst = make([]*sim.RNG, nodes), make([]*sim.RNG, nodes)
	for i := range arr {
		arr[i] = base.Fork(uint64(i))
		dst[i] = base.Fork(uint64(1000 + i))
	}
	return arr, dst
}

// corePattern is a pattern over a concentrated system's virtual core grid,
// addressed by core id.
type corePattern struct {
	sys noc.System
	traffic.Pattern
}

// Dest picks src's destination on the virtual grid and maps it back to a core.
func (p corePattern) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	return p.sys.CoreFromVirtual(p.Pattern.Dest(p.sys.VirtualFromCore(src), rng))
}

// netConfig returns the network configuration this member runs on.
func (m *synthMember) netConfig() network.Config {
	var obs func(cycle int64, active int)
	if m.cfg.Progress != nil {
		obs = m.cfg.Progress.Observe
	}
	pr := m.cfg.Probe
	if pr == nil {
		pr = m.rec.Probe() // a replay's recorder carries the probe of its window
	}
	return network.Config{Topo: m.cfg.Topo, Concentration: m.cfg.concentration, Arch: m.cfg.Arch, BufferDepth: m.cfg.BufferDepth,
		NewArbiter: m.cfg.NewArbiter, Probe: pr, Shards: m.cfg.Shards, Check: m.cfg.Check,
		Observer: obs}
}

// replayStarts is called with every flight-recorder replay's recorder just
// before the replay runs. Tests that trigger a run's recorder by hand set it
// to trigger the replay's too; no replay reproduces a trigger from outside
// the run.
var replayStarts = func(*telemetry.Recorder) {}

// replay re-runs this member's run from cycle 0 under the flight
// recorder's replay recorder rr, serially, with a fresh checker and none of
// the run's side effects: the flight recorder's dump path.
func (m *synthMember) replay(rr *telemetry.Recorder) {
	rc := m.cfg
	rc.Shards, rc.Check = 1, rc.Check.Fresh()
	rc.NewRecorder = func(string) *telemetry.Recorder { return rr }
	rc.Observe, rc.Progress, rc.cancelled = nil, nil, nil
	replayStarts(rr)
	if _, err := RunSynthetic(rc); err != nil {
		panic(err)
	}
}

// attach binds the member to its freshly built network: delivery collector,
// observation hook, and per-node traffic processes.
func (m *synthMember) attach(net *network.Network) {
	m.net = net
	cfg := &m.cfg
	m.col = stats.NewCollector(cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles)
	net.OnDeliver = m.col.OnDeliver
	if cfg.Observe != nil {
		col, obs := m.col, cfg.Observe
		net.OnDeliver = func(p *noc.Packet, cycle int64) {
			col.OnDeliver(p, cycle)
			obs(p, cycle)
		}
	}
	if cfg.Progress != nil {
		prog, inner := cfg.Progress, net.OnDeliver
		net.OnDeliver = func(p *noc.Packet, cycle int64) {
			inner(p, cycle)
			prog.CountDeliver(1, int64(p.Length))
		}
	}

	m.lookahead = !cfg.Eager
	// A sweep's arrival map serves only the look-ahead's Next calls; the
	// eager path draws one Tick a cycle.
	skips := m.lookahead && !m.selfSimilar && cfg.arrivals != nil
	arr, dst := forkStreams(cfg.Seed, cfg.system().Cores())
	m.procs = make([]traffic.Process, len(arr))
	m.dests = dst
	for i, r := range arr {
		if m.selfSimilar {
			m.procs[i] = traffic.NewSelfSimilar(m.pktRate, r)
			continue
		}
		b := &traffic.Bernoulli{P: m.pktRate, RNG: r}
		if skips {
			b.SkipWith(cfg.arrivals.row(i))
		}
		m.procs[i] = b
	}

	if m.lookahead {
		m.arr = make([]int64, len(arr))
		m.arrMin = m.total
		for id := range m.arr {
			m.arrMin = min(m.arrMin, m.advanceArr(id, 0))
		}
	}
}

// advanceArr consumes node id's arrival stream from cycle `from` until the
// next injection hit or the end of the window — one skip-ahead Next call,
// whatever the gap — recording the result in arr[id] and returning it.
// arr[id] == total means the stream has no hit left in the window.
func (m *synthMember) advanceArr(id int, from int64) int64 {
	gap, _ := m.procs[id].Next(m.total - from)
	m.arr[id] = from + gap
	return m.arr[id]
}

// idleSkip returns how many cycles the main loop may jump right now: the
// distance from the next cycle to the earliest upcoming arrival while the
// network is fully idle, 0 when stepping must continue. The main loop must
// run the warmup boundary's cycle, where injectCycle opens the measurement
// window, so a jump from before the boundary stops on it and none starts
// there. The caller performs the jump with FastForwardIdle, which preserves
// per-cycle probe sampling, so skipped cycles are observationally identical
// to stepped ones.
func (m *synthMember) idleSkip() int64 {
	if !m.lookahead || !m.net.Idle() {
		return 0
	}
	next := m.net.Cycle()
	end := m.total
	if next <= m.cfg.WarmupCycles {
		end = m.cfg.WarmupCycles
	}
	return max(min(m.arrMin, end)-next, 0)
}

// injectCycle performs the pre-step work of main-loop cycle cyc: the
// measurement-window counter snapshot at the warmup boundary, then one
// injection opportunity per node. The caller steps the network afterwards.
func (m *synthMember) injectCycle(cyc int64) {
	if cyc == m.cfg.WarmupCycles {
		m.startCounters = *m.net.Counters()
	}
	if m.lookahead {
		if cyc < m.arrMin {
			return // no arrival this cycle anywhere — the common sparse case
		}
		injected := 0
		arrMin := m.total
		for id, at := range m.arr {
			if at == cyc {
				src := noc.NodeID(id)
				dst := m.pattern.Dest(src, m.dests[id])
				if dst != src { // permutation fixed points do not inject
					p := m.net.Inject(src, dst, m.cfg.PacketFlits, 0)
					m.col.OnCreate(p, cyc)
					injected++
				}
				at = m.advanceArr(id, cyc+1)
			}
			if at < arrMin {
				arrMin = at
			}
		}
		m.arrMin = arrMin
		if injected > 0 {
			m.cfg.Progress.CountInject(int64(injected), int64(injected*m.cfg.PacketFlits))
		}
		return
	}
	injected := 0
	for id := 0; id < len(m.procs); id++ {
		if !m.procs[id].Tick() {
			continue
		}
		src := noc.NodeID(id)
		dst := m.pattern.Dest(src, m.dests[id])
		if dst == src {
			continue // permutation fixed point: node does not inject
		}
		p := m.net.Inject(src, dst, m.cfg.PacketFlits, 0)
		m.col.OnCreate(p, cyc)
		injected++
	}
	if injected > 0 {
		m.cfg.Progress.CountInject(int64(injected), int64(injected*m.cfg.PacketFlits))
	}
}

// enterDrain closes the measurement window (energy counters) and arms the
// drain deadline. Call once, after main-loop cycle total-1 has stepped.
func (m *synthMember) enterDrain() {
	m.window = m.net.Counters().Sub(m.startCounters)
	m.deadline = m.net.Cycle() + m.cfg.DrainCycles
}

// needsDrainStep reports whether the drain loop should step the network
// again. A fully quiescent network with the collector still incomplete is
// wedged — no evaluation can deliver anything further — so it jumps to the
// deadline instead of stepping dead cycles and reports done.
func (m *synthMember) needsDrainStep() bool {
	if m.col.Complete() || m.net.Cycle() >= m.deadline {
		return false
	}
	if m.net.Idle() {
		if out := m.net.Outstanding(); out > 0 {
			m.rec.Trigger(m.net.Cycle(),
				fmt.Sprintf("deadlock: network fully quiescent with %d packets outstanding", out))
		}
		m.net.FastForwardIdle(m.deadline - m.net.Cycle())
		return false
	}
	return true
}

// cancelPoll is the cycle period at which a run polls cfg.cancelled.
const cancelPoll = 1024

// cancelledAt reports whether the run's sweep has cancelled it, polling the
// hook on every cancelPoll-th cycle; once true, it stays true.
func (m *synthMember) cancelledAt(cyc int64) bool {
	if !m.cancelled && cyc%cancelPoll == 0 && m.cfg.cancelled != nil {
		m.cancelled = m.cfg.cancelled()
	}
	return m.cancelled
}

// finalize runs the post-drain invariant sweep and assembles the result.
func (m *synthMember) finalize() RunResult {
	cfg := &m.cfg
	net, col := m.net, m.col

	// With a checker armed and the network fully drained, sweep the
	// post-drain invariants so a caller inspecting cfg.Check sees the
	// conservation results and the delivery oracle. A saturated point that
	// hit the drain deadline still has packets legitimately in flight — the
	// oracle would miscount them as lost, so the sweep is skipped.
	if net.Outstanding() == 0 {
		net.CheckInvariants()
	}

	nodes := cfg.system().Cores()
	accepted := col.AcceptedFlitsPerNodeCycle(nodes)
	res := RunResult{
		Arch:              cfg.Arch,
		Label:             cfg.Pattern,
		Nodes:             nodes,
		PeriodNs:          m.periodNs,
		OfferedMBps:       cfg.RateMBps,
		AcceptedMBps:      MBpsPerNode(accepted, m.periodNs),
		MeanLatencyCycles: col.MeanLatencyCycles(),
		DeliveredPackets:  col.WindowPackets(),
		Window:            m.window,
	}
	res.MeanLatencyNs = res.MeanLatencyCycles * m.periodNs
	res.P50LatencyNs, res.P95LatencyNs, res.P99LatencyNs = col.LatencyPercentilesNs(m.periodNs)
	res.MaxLatencyNs = float64(col.MaxLatencyCycles()) * m.periodNs
	// Saturation: measured packets never drained, or deliveries inside the
	// window fell visibly short of what the sources created (compared
	// against actual creations, not the nominal rate, since permutation
	// patterns have non-injecting fixed points).
	res.Saturated = !col.Complete() ||
		float64(col.WindowFlits()) < 0.92*float64(col.CreatedFlits())

	res.Energy = cfg.Model.Energy(m.window, cfg.Arch == router.NoX)
	if col.WindowPackets() > 0 {
		res.PacketEnergyPJ = res.Energy.TotalPJ() / float64(col.WindowPackets())
	}
	res.PowerMW = res.Energy.TotalPJ() / (float64(cfg.MeasureCycles) * m.periodNs)
	if !math.IsNaN(res.MeanLatencyNs) {
		res.EnergyDelay2 = edp2(res.PacketEnergyPJ, res.MeanLatencyNs)
	}

	// Telemetry epilogue: fold this run's window events into the live
	// per-arch counters, and dump the failure window if anything (checker
	// violation, drain deadlock) tripped the flight recorder.
	cfg.Progress.RunDone(cfg.Arch.String(), m.window)
	if m.rec.Triggered() {
		if path, err := m.rec.Flush(m.replay, func(w io.Writer) {
			net.WriteDiagnostic(w)
			cfg.Check.WriteReport(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "harness:", err)
		} else if path != "" {
			m.rec.LogDump()
		}
	}
	return res
}
