package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// AppConfig parameterizes one application-trace run (§5.2): open-loop
// replay of a coherence trace onto two physical networks (request and
// reply classes isolated, Table 1), each running at the router
// architecture's maximum frequency asynchronously from the 3 GHz cores.
type AppConfig struct {
	Arch        router.Arch
	Trace       *trace.Trace
	BufferDepth int
	// DrainCycles bounds the run after the last event is injected.
	DrainCycles int64
	// Model is the energy model (DefaultModel when nil).
	Model *power.Model
	// Probe, when set, records flit-level events and per-router metrics.
	// Both physical networks share it (their event streams interleave on
	// common cycle numbers).
	Probe *probe.Probe
	// Progress, when set, receives per-cycle ticks and inject/deliver counts
	// for live telemetry (cycles/s, /metrics).
	Progress *telemetry.Sampler
	// Recorder, when set, is this run's flight recorder: an undrained run or
	// a checker violation triggers it, and the run's epilogue replays the
	// run to dump the failure window. Ignored when Probe is set.
	Recorder *telemetry.Recorder
	// Shards selects each physical network's execution mode (see
	// network.Config): 0 = auto, 1 = serial, N >= 2 = sharded. Serial class
	// networks that nothing else couples (no Probe, Check or Progress) step
	// on their own goroutines when GOMAXPROCS >= 2, and in lockstep
	// otherwise. Results are bit-identical in every mode.
	Shards int
	// Check, when set, arms the runtime invariant layer on both physical
	// networks (they share the checker; packet IDs are globally unique
	// across classes). The post-drain sweep runs before the result is
	// returned. Nil costs nothing.
	Check *check.Checker
}

// AppResult captures one (architecture, workload) outcome for Figures 10
// and 11.
type AppResult struct {
	Arch     router.Arch
	Workload string
	PeriodNs float64

	MeanLatencyNs  float64
	P50LatencyNs   float64
	P95LatencyNs   float64
	P99LatencyNs   float64
	DeliveredPkts  int64
	PacketEnergyPJ float64
	EnergyDelay2   float64
	// InjectionMBps is the trace's offered bandwidth per node.
	InjectionMBps float64
	// Drained reports all trace packets were delivered within the limit.
	Drained bool
	Window  power.Counters
}

// RunApp replays the trace on the architecture and returns Figure 10/11
// metrics. Packet events are injected on the network cycle corresponding
// to their CPU-domain timestamp, so injection bandwidth is identical
// across architectures as required by §5.2. A replay always starts at
// cycle 0.
func RunApp(cfg AppConfig) AppResult {
	if cfg.Trace == nil {
		panic("harness: AppConfig.Trace is required")
	}
	model := cfg.Model
	if model == nil {
		m := power.DefaultModel()
		model = &m
	}
	if cfg.DrainCycles == 0 {
		cfg.DrainCycles = 500_000
	}

	periodNs := physical.ClockPeriodNs(cfg.Arch)
	periodPs := physical.ClockPeriodPs(cfg.Arch)
	topo := cfg.Trace.Topo

	// An explicit Probe already records the complete event stream.
	if cfg.Probe != nil {
		cfg.Recorder = nil
	}
	cfg.Recorder.SetPeriodNs(periodNs)
	cfg.Recorder.BindChecker(cfg.Check)
	// NewMulti installs the same Config on every class network, so a raw
	// sampler observer would count each cycle once per class. Dedup on the
	// cycle number: the classes step in lockstep, and observers fire on the
	// stepping goroutine, so the last-seen cycle needs no lock.
	var obs func(cycle int64, active int)
	if cfg.Progress != nil {
		inner, last := cfg.Progress.Observe, int64(-1)
		obs = func(cycle int64, active int) {
			if cycle == last {
				return
			}
			last = cycle
			inner(cycle, active)
		}
	}

	pr := cfg.Probe
	if pr == nil {
		pr = cfg.Recorder.Probe() // a replay's recorder carries the probe of its window
	}
	multi := network.NewMulti(trace.NumClasses, network.Config{Topo: topo, Arch: cfg.Arch, BufferDepth: cfg.BufferDepth, Probe: pr, Shards: cfg.Shards, Check: cfg.Check, Observer: obs})
	defer multi.Close()
	cfg.Progress.RunStarted()

	r := &appReplay{cfg: &cfg, multi: multi, events: cfg.Trace.Events, periodPs: periodPs, deadline: cfg.DrainCycles}
	if n := len(r.events); n > 0 {
		r.deadline += r.due(n-1) + 1
	}
	var s *appStream
	if classesUncoupled(cfg, pr, multi) {
		s = r.runClasses()
	} else {
		s = &appStream{net: multi, class: -1, col: stats.NewCollector(0, 1<<62)}
		multi.OnDeliver(r.deliver(s))
		r.run(s)
	}
	delivered := s.col.Delivered()

	// With a checker armed and everything delivered, run the post-drain
	// invariant sweep across both physical networks.
	if multi.Outstanding() == 0 {
		multi.CheckInvariants()
	} else {
		cfg.Recorder.Trigger(s.cycle, fmt.Sprintf("undrained: %d packets outstanding after %d drain cycles", multi.Outstanding(), cfg.DrainCycles))
	}

	window := multi.Counters()
	res := AppResult{
		Arch:          cfg.Arch,
		Workload:      cfg.Trace.Workload.Name,
		PeriodNs:      periodNs,
		DeliveredPkts: delivered,
		InjectionMBps: cfg.Trace.MeanInjectionMBps(),
		Drained:       s.col.Created() == int64(len(r.events)) && multi.Outstanding() == 0,
		Window:        window,
	}
	if delivered > 0 {
		res.MeanLatencyNs = float64(s.sum) / float64(delivered) * periodNs
		res.P50LatencyNs, res.P95LatencyNs, res.P99LatencyNs = s.col.LatencyPercentilesNs(periodNs)
		total := model.Energy(window, cfg.Arch == router.NoX).TotalPJ()
		res.PacketEnergyPJ = total / float64(delivered)
		// Average per-packet energy-delay^2: E[E_pkt * T^2] with the mean
		// packet energy as the per-packet energy estimate. Averaging T^2
		// per packet (rather than squaring the mean latency) is the literal
		// reading of "average packet energy-delay^2 product" and weights
		// the latency tails that misspeculation produces.
		res.EnergyDelay2 = res.PacketEnergyPJ * float64(s.sqSum) / float64(delivered) * periodNs * periodNs
	} else {
		res.MeanLatencyNs = math.NaN()
	}

	// Telemetry epilogue: fold this replay's datapath events into the live
	// per-arch counters, and dump the failure window if the checker or the
	// undrained exit tripped the flight recorder. The dump re-runs this
	// replay from cycle 0, serially, under the recorder Flush hands it.
	cfg.Progress.RunDone(cfg.Arch.String(), window)
	if cfg.Recorder.Triggered() {
		replay := func(rr *telemetry.Recorder) {
			rc := cfg
			rc.Shards, rc.Check = 1, cfg.Check.Fresh()
			rc.Progress, rc.Recorder = nil, rr
			replayStarts(rr)
			RunApp(rc)
		}
		if _, err := cfg.Recorder.Flush(replay, func(w io.Writer) {
			for class := 0; class < multi.Classes(); class++ {
				fmt.Fprintf(w, "class %d ", class)
				multi.Net(class).WriteDiagnostic(w)
			}
			cfg.Check.WriteReport(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "harness:", err)
		}
	}
	return res
}

// classesUncoupled reports whether each class network may step on its own
// goroutine: they share no wires or feedback (open-loop replay), and nothing
// couples them cycle by cycle — no probe, checker or sampler — each is
// serial (one Config), and there is a second CPU.
func classesUncoupled(cfg AppConfig, pr *probe.Probe, multi *network.Multi) bool {
	return pr == nil && cfg.Check == nil && cfg.Progress == nil &&
		multi.Net(0).Shards() == 1 && runtime.GOMAXPROCS(0) >= 2
}

// appReplay is what one replay's streams share.
type appReplay struct {
	cfg      *AppConfig
	multi    *network.Multi
	events   []trace.Event
	periodPs float64
	deadline int64
}

// appNet is what a stream steps: the Multi in lockstep, or a class network.
type appNet interface {
	Step()
	Outstanding() int64
	FastForwardIdle(limit int64) int64
}

// appStream is one stepping goroutine's share of a replay: its network, its
// cursor into the trace, and the latency record of what it delivers.
type appStream struct {
	net   appNet
	class int // the class it replays; -1 = every class (lockstep)
	idx   int // next trace event
	cycle int64
	col   *stats.Collector // measures every trace packet: its window spans the run
	sum   int64            // latencies, cycles
	sqSum int64            // squared latencies, cycles^2
}

// due returns the network cycle trace event i is injected on.
func (r *appReplay) due(i int) int64 { return int64(float64(r.events[i].TimePs) / r.periodPs) }

// pending moves the stream's cursor to its next event and reports whether
// one remains. Class 0's stream also takes events of classes out of range,
// so InjectAs rejects them as lockstep does.
func (r *appReplay) pending(s *appStream) bool {
	for ; s.idx < len(r.events) && s.class >= 0; s.idx++ {
		if c := r.events[s.idx].Class; c == s.class || s.class == 0 && (c < 0 || c >= r.multi.Classes()) {
			break
		}
	}
	return s.idx < len(r.events)
}

// inject creates every event of the stream's classes due by its cycle, in
// trace order. A packet's ID is its event index + 1 under either schedule.
func (r *appReplay) inject(s *appStream) {
	for r.pending(s) && r.due(s.idx) <= s.cycle {
		e := r.events[s.idx]
		s.idx++
		p, err := r.multi.InjectAs(uint64(s.idx), e.Src, e.Dst, e.Flits, e.Class)
		if err != nil {
			panic(fmt.Sprintf("harness: trace event %d: %v", s.idx-1, err))
		}
		s.col.OnCreate(p, s.cycle)
		r.cfg.Progress.CountInject(1, int64(e.Flits))
	}
}

// deliver returns the stream's delivery observer.
func (r *appReplay) deliver(s *appStream) func(*noc.Packet, int64) {
	return func(p *noc.Packet, cycle int64) {
		l := p.Latency()
		s.sum, s.sqSum = s.sum+l, s.sqSum+l*l
		s.col.OnDeliver(p, cycle)
		r.cfg.Progress.CountDeliver(1, int64(p.Length))
	}
}

// run steps the stream from its cycle until the deadline, or until its
// events are injected and its network has delivered them.
func (r *appReplay) run(s *appStream) {
	cfg := r.cfg
	// A flight-recorder replay stops once its recorder is Done.
	for s.cycle < r.deadline && (r.pending(s) || s.net.Outstanding() > 0) && !cfg.Recorder.Done(s.cycle) {
		// Traces have idle gaps between bursts; once the network has fully
		// quiesced, jump straight to the next event's injection cycle (one is
		// pending, or the loop would have ended). The fast-forward replays
		// per-cycle hooks, so probed output is unchanged.
		if s.net.Outstanding() == 0 {
			if due := r.due(s.idx); due > s.cycle {
				if skipped := s.net.FastForwardIdle(due - s.cycle); skipped > 0 {
					s.cycle += skipped
					cfg.Progress.Tick(s.cycle)
					continue
				}
			}
		}
		r.inject(s)
		s.net.Step()
		s.cycle++
		cfg.Progress.Tick(s.cycle)
	}
}

// runClasses replays each class network on its own goroutine and folds the
// streams into lockstep's result, exactly. A class that finished early is
// stepped up to the common end cycle, as lockstep steps it (idle steps change
// no counter). A class goroutine's panic is re-raised here, the one at the
// earliest trace event: the one lockstep meets first.
func (r *appReplay) runClasses() *appStream {
	streams := make([]*appStream, r.multi.Classes())
	panics := make([]any, len(streams))
	var wg sync.WaitGroup
	for class := range streams {
		net := r.multi.Net(class)
		s := &appStream{net: net, class: class, col: stats.NewCollector(0, 1<<62)}
		net.OnDeliver = r.deliver(s)
		streams[class] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[class] = recover() }()
			r.run(s)
		}()
	}
	wg.Wait()
	first, end := -1, int64(0)
	for class, s := range streams {
		end = max(end, s.cycle)
		if panics[class] != nil && (first < 0 || s.idx < streams[first].idx) {
			first = class
		}
	}
	if first >= 0 {
		panic(panics[first])
	}
	out := streams[0]
	for _, s := range streams {
		for ; s.cycle < end; s.cycle++ {
			s.net.Step()
		}
		if s != out {
			out.col.Merge(s.col)
			out.sum, out.sqSum = out.sum+s.sum, out.sqSum+s.sqSum
		}
	}
	return out
}

// AppCheckpoint is an empty shim: app replays no longer checkpoint, and
// RunAppAllArchs ignores it. It stays only because the benchmark module
// (benchmark/apps.go) passes AppCheckpoint{}.
type AppCheckpoint struct{}

// RunAppAllArchs replays one trace on every architecture. The four replays
// are independent (the trace is read-only; each builds its own networks),
// so a pool with multiple workers runs them concurrently; within a replay,
// shards parallelizes each network (0 = auto), and serial networks step
// their classes on their own goroutines (see AppConfig.Shards). Results are
// identical at every setting. tel threads the tool's live telemetry into
// each replay (Telemetry{} disables it).
func RunAppAllArchs(tr *trace.Trace, bufferDepth int, pool *exp.Pool, shards int, tel Telemetry, _ AppCheckpoint) map[router.Arch]AppResult {
	results, _ := exp.Map(context.Background(), pool, len(router.Archs),
		func(_ context.Context, i int) (AppResult, error) {
			arch := router.Archs[i]
			return RunApp(AppConfig{Arch: arch, Trace: tr, BufferDepth: bufferDepth, Shards: shards,
				Progress: tel.Progress,
				Recorder: tel.recorder(fmt.Sprintf("app-%s-%s", tr.Workload.Name, arch))}), nil
		})
	out := map[router.Arch]AppResult{}
	for i, arch := range router.Archs {
		out[arch] = results[i]
	}
	return out
}

// GeoMeanImprovement returns NoX's mean energy-delay^2 improvement over
// each baseline across workloads, the §5.2 headline metric ("On average
// the NoX architecture outperforms the non-speculative, Spec-Fast, and
// Spec-Accurate by 29.5%, 34.4%, and 2.7%"). Improvement is
// 1 - ED2(NoX)/ED2(baseline), averaged arithmetically across workloads.
func GeoMeanImprovement(results []map[router.Arch]AppResult) map[router.Arch]float64 {
	out := map[router.Arch]float64{}
	for _, base := range []router.Arch{router.NonSpec, router.SpecFast, router.SpecAccurate} {
		sum := 0.0
		n := 0
		for _, byArch := range results {
			nox, okN := byArch[router.NoX]
			b, okB := byArch[base]
			if !okN || !okB || b.EnergyDelay2 == 0 {
				continue
			}
			sum += 1 - nox.EnergyDelay2/b.EnergyDelay2
			n++
		}
		if n > 0 {
			out[base] = sum / float64(n)
		}
	}
	return out
}
