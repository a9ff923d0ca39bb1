package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

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
	// for live telemetry (cycles/s, /metrics). Only the request network
	// reports its cycles to it, so each replayed cycle counts once.
	Progress *telemetry.Sampler
	// Recorder, when set, is this run's flight recorder: an undrained run or
	// a checker violation triggers it, and the run's epilogue replays the
	// run to dump the failure window. Ignored when Probe is set.
	Recorder *telemetry.Recorder
	// Shards selects each physical network's execution mode (see
	// network.Config): 0 = auto, 1 = serial, N >= 2 = sharded. Serial class
	// networks that nothing else couples (no Probe or Check) step on their
	// own goroutines when GOMAXPROCS >= 2, and together, one cycle at a
	// time, otherwise. Results are bit-identical in every mode.
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

	// An explicit Probe already records the complete event stream.
	if cfg.Probe != nil {
		cfg.Recorder = nil
	}
	cfg.Recorder.SetPeriodNs(periodNs)
	cfg.Recorder.BindChecker(cfg.Check)
	r := newAppReplay(&cfg)
	defer r.close()
	cfg.Progress.RunStarted()
	s := r.replay()
	delivered := s.col.Delivered()

	var outstanding int64
	var window power.Counters
	for _, c := range r.streams {
		outstanding += c.net.Outstanding()
		window.Add(*c.net.Counters())
	}
	// With a checker armed and everything delivered, run the post-drain
	// invariant sweep on both physical networks. They share the checker,
	// whose Finalize is idempotent: the lost-packet scan runs once.
	if outstanding == 0 {
		for _, c := range r.streams {
			c.net.CheckInvariants()
		}
	} else {
		cfg.Recorder.Trigger(s.cycle, fmt.Sprintf("undrained: %d packets outstanding after %d drain cycles", outstanding, cfg.DrainCycles))
	}

	res := AppResult{
		Arch:          cfg.Arch,
		Workload:      cfg.Trace.Workload.Name,
		PeriodNs:      periodNs,
		DeliveredPkts: delivered,
		InjectionMBps: cfg.Trace.MeanInjectionMBps(),
		Drained:       s.col.Created() == int64(len(r.events)) && outstanding == 0,
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
		if path, err := cfg.Recorder.Flush(replay, func(w io.Writer) {
			for class, c := range r.streams {
				fmt.Fprintf(w, "class %d ", class)
				c.net.WriteDiagnostic(w)
			}
			cfg.Check.WriteReport(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "harness:", err)
		} else if path != "" {
			cfg.Recorder.LogDump()
		}
	}
	return res
}

// appReplay is one replay: its trace, and one stream per packet class, each
// on its own physical network.
type appReplay struct {
	cfg      *AppConfig
	events   []trace.Event
	periodPs float64
	deadline int64
	streams  []*appStream
	// concurrent steps each stream on its own goroutine: the class networks
	// share no wires or feedback (open-loop replay), and nothing couples them
	// cycle by cycle — no probe or checker — each is serial, and there is a
	// second CPU.
	concurrent bool
}

// appStream is one class's share of a replay: its network, its cursor into
// the trace, and the latency record of what it delivers.
type appStream struct {
	net   *network.Network
	class int
	idx   int // next trace event
	cycle int64
	col   *stats.Collector // measures every trace packet: its window spans the run
	sum   int64            // latencies, cycles
	sqSum int64            // squared latencies, cycles^2
}

// newAppReplay builds one network per class from the replay's configuration.
// Only class 0's carries the sampler's observer, so each cycle counts once.
func newAppReplay(cfg *AppConfig) *appReplay {
	pr := cfg.Probe
	if pr == nil {
		pr = cfg.Recorder.Probe() // a replay's recorder carries the probe of its window
	}
	r := &appReplay{cfg: cfg, events: cfg.Trace.Events, periodPs: physical.ClockPeriodPs(cfg.Arch), deadline: cfg.DrainCycles}
	if n := len(r.events); n > 0 {
		r.deadline += r.due(n-1) + 1
	}
	for class := range trace.NumClasses {
		ncfg := network.Config{Topo: cfg.Trace.Topo, Arch: cfg.Arch, BufferDepth: cfg.BufferDepth, Probe: pr, Shards: cfg.Shards, Check: cfg.Check}
		if class == 0 && cfg.Progress != nil {
			ncfg.Observer = cfg.Progress.Observe
		}
		s := &appStream{net: network.New(ncfg), class: class, col: stats.NewCollector(0, 1<<62)}
		s.net.OnDeliver = r.deliver(s)
		r.streams = append(r.streams, s)
	}
	r.concurrent = pr == nil && cfg.Check == nil && r.streams[0].net.Shards() == 1 && runtime.GOMAXPROCS(0) >= 2
	return r
}

// close releases every class network's sharded worker pool.
func (r *appReplay) close() {
	for _, s := range r.streams {
		s.net.Close()
	}
}

// due returns the network cycle trace event i is injected on.
func (r *appReplay) due(i int) int64 { return int64(float64(r.events[i].TimePs) / r.periodPs) }

// pending moves the stream's cursor to its next event and reports whether
// one remains. Class 0's stream also takes events of classes out of range,
// so inject rejects them.
func (r *appReplay) pending(s *appStream) bool {
	for ; s.idx < len(r.events); s.idx++ {
		if c := r.events[s.idx].Class; c == s.class || s.class == 0 && (c < 0 || c >= trace.NumClasses) {
			break
		}
	}
	return s.idx < len(r.events)
}

// next returns the stream whose next event comes first in trace order, or
// nil once every stream's events are injected.
func (r *appReplay) next(ss []*appStream) *appStream {
	var first *appStream
	for _, s := range ss {
		if r.pending(s) && (first == nil || s.idx < first.idx) {
			first = s
		}
	}
	return first
}

// inject creates every event of the streams' classes due by the cycle, in
// trace order. A packet's ID is its event index + 1 under either schedule.
func (r *appReplay) inject(ss []*appStream, cycle int64) {
	for s := r.next(ss); s != nil && r.due(s.idx) <= cycle; s = r.next(ss) {
		e := r.events[s.idx]
		s.idx++
		if e.Class != s.class {
			panic(fmt.Sprintf("harness: trace event %d: %v: class %d of %d", s.idx-1, network.ErrBadPacket, e.Class, trace.NumClasses))
		}
		p, err := s.net.InjectAs(uint64(s.idx), e.Src, e.Dst, e.Flits, e.Class)
		if err != nil {
			panic(fmt.Sprintf("harness: trace event %d: %v", s.idx-1, err))
		}
		s.col.OnCreate(p, cycle)
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

// run steps the streams together, one cycle at a time, until the deadline,
// or until their events are injected and their networks have delivered them.
func (r *appReplay) run(ss []*appStream) {
	cfg := r.cfg
	var cycle int64
	// A flight-recorder replay stops once its recorder is Done.
	for cycle < r.deadline && (r.next(ss) != nil || outstanding(ss) > 0) && !cfg.Recorder.Done(cycle) {
		// Traces have idle gaps between bursts; once every network has fully
		// quiesced, jump straight to the next event's injection cycle (one is
		// pending, or the loop would have ended). The fast-forward replays
		// per-cycle hooks, so probed output is unchanged.
		if outstanding(ss) == 0 {
			if due := r.due(r.next(ss).idx); due > cycle && idle(ss) {
				for _, s := range ss {
					s.net.FastForwardIdle(due - cycle)
				}
				cycle = due
				cfg.Progress.Tick(cycle)
				continue
			}
		}
		r.inject(ss, cycle)
		for _, s := range ss {
			s.net.Step()
		}
		cycle++
		cfg.Progress.Tick(cycle)
	}
	for _, s := range ss {
		s.cycle = cycle
	}
}

// outstanding returns the streams' undelivered packets.
func outstanding(ss []*appStream) int64 {
	var n int64
	for _, s := range ss {
		n += s.net.Outstanding()
	}
	return n
}

// idle reports that every stream's network is fully quiescent.
func idle(ss []*appStream) bool {
	for _, s := range ss {
		if !s.net.Idle() {
			return false
		}
	}
	return true
}

// replay runs the streams, each on its own goroutine when concurrent and all
// together otherwise, and folds them into class 0's, exactly: a class that
// finished early is stepped up to the common end cycle, as the coupled
// schedule steps it (idle steps change no counter), and the latency records
// are merged. A class goroutine's panic is re-raised here, the one at the
// earliest trace event: the one the coupled schedule meets first.
func (r *appReplay) replay() *appStream {
	if r.concurrent {
		panics := make([]any, len(r.streams))
		var wg sync.WaitGroup
		for class := range r.streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { panics[class] = recover() }()
				r.run(r.streams[class : class+1])
			}()
		}
		wg.Wait()
		first := -1
		for class, s := range r.streams {
			if panics[class] != nil && (first < 0 || s.idx < r.streams[first].idx) {
				first = class
			}
		}
		if first >= 0 {
			panic(panics[first])
		}
	} else {
		r.run(r.streams)
	}
	var end int64
	for _, s := range r.streams {
		end = max(end, s.cycle)
	}
	out := r.streams[0]
	for _, s := range r.streams {
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

// RunAppAllArchs replays one trace on every architecture: the one-trace
// case of RunAppWalk.
func RunAppAllArchs(tr *trace.Trace, bufferDepth int, pool *exp.Pool, shards int, tel Telemetry, _ AppCheckpoint) map[router.Arch]AppResult {
	results, _ := RunAppWalk(1, func(int) (*trace.Trace, error) { return tr, nil }, bufferDepth, pool, shards, tel)
	return results[0]
}

// RunAppWalk replays n traces on every architecture in one pool walk. Its
// cells are the (trace, architecture) replays in trace-major order; they are
// independent (a trace is read-only; each replay builds its own networks),
// so a pool with multiple workers runs them concurrently, across traces as
// well as architectures. Within a replay, shards parallelizes each network
// (0 = auto), and serial networks step their classes on their own
// goroutines (see AppConfig.Shards). tel threads the tool's live telemetry
// into each replay (Telemetry{} disables it).
//
// load builds trace i. The walk calls it once per trace, in index order and
// never concurrently, when the first replay that needs the trace starts,
// and lets the trace go after its last replay: a pool of W workers holds at
// most W+1 traces at once. A load error stops the walk: no later trace is
// loaded, no further replay is dispatched, and once the replays already
// under way finish, RunAppWalk returns the error of the lowest failing
// trace. Results, one map per trace, are identical at every setting.
func RunAppWalk(n int, load func(i int) (*trace.Trace, error), bufferDepth int, pool *exp.Pool, shards int, tel Telemetry) ([]map[router.Arch]AppResult, error) {
	return newAppWalk(n, load).run(bufferDepth, pool, shards, tel)
}

// appWalk is RunAppWalk's trace store: traces load in index order, on
// demand, and are dropped when their last replay is done.
type appWalk struct {
	load   func(i int) (*trace.Trace, error)
	mu     sync.Mutex   // serializes loads
	loaded atomic.Int64 // traces[:loaded] are set
	traces []appTrace
	// dropped, when set, hears that trace i's last replay is done (tests).
	dropped func(i int)
}

type appTrace struct {
	tr   *trace.Trace
	err  error
	left atomic.Int32 // replays not yet done
}

func newAppWalk(n int, load func(i int) (*trace.Trace, error)) *appWalk {
	w := &appWalk{load: load, traces: make([]appTrace, n)}
	for i := range w.traces {
		w.traces[i].left.Store(int32(len(router.Archs)))
	}
	return w
}

// trace returns trace i, loading it and every earlier trace not yet loaded.
// After a failed load, later traces return its error unloaded.
func (w *appWalk) trace(i int) (*trace.Trace, error) {
	if int64(i) >= w.loaded.Load() {
		w.mu.Lock()
		for k := int(w.loaded.Load()); k <= i; k++ {
			t := &w.traces[k]
			if k > 0 && w.traces[k-1].err != nil {
				t.err = w.traces[k-1].err
			} else {
				t.tr, t.err = w.load(k)
			}
			w.loaded.Store(int64(k + 1))
		}
		w.mu.Unlock()
	}
	return w.traces[i].tr, w.traces[i].err
}

// done marks one replay of trace i finished; the last one drops the trace.
// A loaded trace is most of the live heap (4 MB at 40,000 CPU cycles, where
// a replay's networks take 0.4 MB), and the heap goal was last set while it
// and its successor were both live. So a drop with traces still to come
// collects at once: the goal follows the live set down, and the next
// trace's buffer reuses the freed pages instead of growing the heap.
func (w *appWalk) done(i int) {
	if w.traces[i].left.Add(-1) != 0 {
		return
	}
	w.traces[i].tr = nil
	if w.dropped != nil {
		w.dropped(i)
	}
	if i+1 < len(w.traces) {
		runtime.GC()
	}
}

func (w *appWalk) run(bufferDepth int, pool *exp.Pool, shards int, tel Telemetry) ([]map[router.Arch]AppResult, error) {
	archs := len(router.Archs)
	results, err := exp.Map(context.Background(), pool, len(w.traces)*archs,
		func(_ context.Context, c int) (AppResult, error) {
			i, arch := c/archs, router.Archs[c%archs]
			tr, err := w.trace(i)
			if err != nil {
				return AppResult{}, err
			}
			defer w.done(i)
			return RunApp(AppConfig{Arch: arch, Trace: tr, BufferDepth: bufferDepth, Shards: shards,
				Progress: tel.Progress,
				Recorder: tel.recorder(fmt.Sprintf("app-%s-%s", tr.Workload.Name, arch))}), nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]map[router.Arch]AppResult, len(w.traces))
	for i := range out {
		out[i] = map[router.Arch]AppResult{}
		for a, arch := range router.Archs {
			out[i][arch] = results[i*archs+a]
		}
	}
	return out, nil
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
