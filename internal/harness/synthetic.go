package harness

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/arbiter"
	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// SyntheticConfig parameterizes one synthetic-traffic run (§5.1).
type SyntheticConfig struct {
	Arch router.Arch
	Topo noc.Topology
	// Pattern is a traffic.ByName pattern, or "selfsimilar" for the Pareto
	// ON/OFF process over uniform destinations.
	Pattern string
	// RateMBps is the offered injection bandwidth per node in MB/s — the
	// x-axis of Figures 8 and 9. It is converted per architecture using
	// the Table 2 clock period, so the comparison is in absolute time.
	RateMBps float64
	// PacketFlits is the packet size (1 for the paper's synthetic runs).
	PacketFlits int

	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
	BufferDepth   int
	Seed          uint64
	// Model is the energy model (DefaultModel when zero-valued).
	Model *power.Model
	// Observe, when set, sees every delivered packet (tracing/debugging). The
	// packet is valid until Observe returns — the network recycles it then —
	// so copy the fields to keep, not the pointer.
	Observe func(p *noc.Packet, cycle int64)
	// Probe, when set, records flit-level events and per-router metrics for
	// the run (see internal/probe). Nil disables instrumentation.
	Probe *probe.Probe
	// Progress, when set, receives per-cycle ticks and inject/deliver counts
	// for live telemetry (cycles/s, /metrics). Nil costs a nil check per
	// hook.
	Progress *telemetry.Sampler
	// NewRecorder, when set and Probe is nil, builds the run's flight
	// recorder from a deterministic per-run label — the factory the cmd
	// tools thread through sweeps so every point dumps to its own files. A
	// deadlock in the drain loop or a checker violation triggers it, and
	// the run's epilogue replays the run to dump the failure window. A
	// factory returning nil disarms recording.
	NewRecorder func(label string) *telemetry.Recorder
	// Shards selects the simulation execution mode (see network.Config):
	// 0 = automatic crossover, 1 = serial, N >= 2 = sharded worker pool.
	// Results are bit-identical at every setting.
	Shards int
	// Check, when set, arms the runtime invariant layer on the run's network
	// (see internal/check); the post-drain conservation sweep and delivery
	// oracle run before the result is returned. Nil costs nothing.
	Check *check.Checker
	// NewArbiter overrides the output-arbiter constructor (see
	// network.Config.NewArbiter); nil keeps the default round-robin. Used by
	// the arbiter ablation.
	NewArbiter func(int) arbiter.Arbiter
	// Deprecated: WarmRateMBps is ignored; every run warms up at RateMBps.
	// It is kept only because the benchmark module (benchmark/rigs.go)
	// still sets it.
	WarmRateMBps float64
	// Deprecated: WarmStart is ignored; every sweep runs each cell from
	// cycle 0. It is kept only because the benchmark module
	// (benchmark/rigs.go) still sets it.
	WarmStart bool
	// Eager disables the harness's sparse-regime accelerations — the
	// per-node next-arrival lookahead and the idle fast-forward between
	// injections — stepping every main-loop cycle the classic way. Output is
	// byte-identical either way; no tool sets it, so production always runs
	// the look-ahead. Eager is the reference mode the sparse equivalence
	// suite compares against (and the honest baseline for the sparse
	// benchmarks).
	Eager bool

	// arrivals is the arrival skip-map SweepSynthetic shares among its
	// cells; nil for a single run.
	arrivals *arrivalMap
	// concentration is the number of cores per router of Topo (1 when
	// zero); only the §8 study (RunFuture) runs a concentrated mesh.
	concentration int
	// cancelled, set on a sweep's cells, is polled every cancelPoll cycles;
	// once it reports true the run stops with errCellCancelled.
	cancelled func() bool
}

// system returns the run's router grid with its cores.
func (c *SyntheticConfig) system() noc.System {
	return noc.System{Grid: c.Topo, Concentration: max(c.concentration, 1)}
}

func (c *SyntheticConfig) fill() {
	if c.Topo.Width == 0 {
		c.Topo = noc.Topology{Width: 8, Height: 8}
	}
	if c.PacketFlits == 0 {
		c.PacketFlits = 1
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 3000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 10000
	}
	if c.DrainCycles == 0 {
		c.DrainCycles = 30000
	}
	if c.Seed == 0 {
		c.Seed = 0xA11CE
	}
	if c.Model == nil {
		m := power.DefaultModel()
		c.Model = &m
	}
}

// ErrRateInfeasible marks the expected end of a rate ladder: the offered
// bandwidth exceeds what one injection port can physically carry at the
// architecture's clock (over one packet per cycle). Sweeps treat it as the
// end of that architecture's series; any other error from a run is a real
// failure and is propagated.
var ErrRateInfeasible = errors.New("offered rate exceeds injection capacity")

// ErrCycles marks a negative warm-up, measurement or drain cycle count (zero
// selects the default).
var ErrCycles = errors.New("negative cycle count")

// ErrRateInvalid marks an offered rate no run can mean: negative,
// NaN or infinite, or zero for the self-similar source (whose OFF period
// has no zero-rate solution). Unlike ErrRateInfeasible it is a caller
// mistake, so sweeps propagate it instead of ending the series quietly.
var ErrRateInvalid = errors.New("invalid injection rate")

// RunSynthetic executes one (architecture, pattern, rate) point and
// returns its latency, throughput, and energy results.
//
// The run itself lives in synthMember (member.go): RunSynthetic builds one
// network and steps it from cycle 0 between the member's per-cycle hooks.
func RunSynthetic(cfg SyntheticConfig) (RunResult, error) {
	m, err := prepareSynthetic(cfg)
	if err != nil {
		return RunResult{}, err
	}
	net, err := network.Build(m.netConfig())
	if err != nil {
		return RunResult{}, err
	}
	defer net.Close()
	m.attach(net)
	m.cfg.Progress.RunStarted()

	// A flight-recorder replay stops once its recorder is Done.
	for cyc := int64(0); cyc < m.total && !m.rec.Done(cyc) && !m.cancelledAt(cyc); cyc = net.Cycle() {
		m.injectCycle(cyc)
		net.Step()
		m.cfg.Progress.Tick(cyc)
		// Sparse regime: with everything parked and the next arrival known,
		// jump the clock instead of stepping empty cycles. FastForwardIdle
		// preserves per-cycle probe sampling, so the skip is unobservable.
		if skip := m.idleSkip(); skip > 0 {
			net.FastForwardIdle(skip)
		}
	}

	// Drain without new traffic so measured packets can complete (deadline
	// and wedge handling live in needsDrainStep).
	m.enterDrain()
	for !m.rec.Done(net.Cycle()) && !m.cancelledAt(net.Cycle()) && m.needsDrainStep() {
		net.Step()
		m.cfg.Progress.Tick(net.Cycle())
	}
	if m.cancelled {
		// A cancelled run closes its sampler run with no window events and
		// flushes no flight dump.
		m.cfg.Progress.RunDone(m.cfg.Arch.String(), power.Counters{})
		return RunResult{}, errCellCancelled
	}
	return m.finalize(), nil
}

// RunSyntheticCohort runs the given points one after another and returns
// per-point results and errors (parallel slices; exactly one of
// results[i]/errs[i] is meaningful). It is kept only because the benchmark
// module (benchmark/) compiles against it; nothing else calls it.
func RunSyntheticCohort(cfgs []SyntheticConfig) ([]RunResult, []error) {
	results := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		results[i], errs[i] = RunSynthetic(cfg)
	}
	return results, errs
}

// SweepPoint is one x-axis point of Figures 8/9.
type SweepPoint struct {
	RateMBps float64
	Results  map[router.Arch]RunResult
}

// SweepSynthetic runs every architecture across the given offered rates,
// stopping an architecture's series after its first saturated point (the
// paper's curves end at saturation). Architectures whose clock cannot even
// offer the rate (ErrRateInfeasible) likewise end their series; any other
// error is a real failure and is returned.
//
// Every pool size runs one walk (sweep), which skips or cancels the cells
// past a series' end or a real error: one worker (or a nil pool) simulates
// exactly the serial stop-at-saturation walk, and any pool size returns the
// same points, RunResults and rendered CSV bit for bit.
//
// A sweep's cells share one arrival map (arrivalMap): each node's
// arrival stream is scanned once for the blocks that can hold an arrival at
// the sweep's top rate, and every look-ahead cell jumps the rest.
func SweepSynthetic(base SyntheticConfig, rates []float64, pool *exp.Pool) ([]SweepPoint, error) {
	base.arrivals = newArrivalMap(base, rates)
	return sweep(base, rates, pool, coldPoint)
}

// pointRunner runs one sweep point: cfg is the sweep's base at the point's
// rate and architecture, ai the architecture's index in router.Archs.
type pointRunner func(cfg SyntheticConfig, ai int) (RunResult, error)

// coldPoint runs a sweep's point with RunSynthetic.
func coldPoint(cfg SyntheticConfig, _ int) (RunResult, error) { return RunSynthetic(cfg) }

// errCellCancelled is the outcome of a sweep cell skipped or stopped because
// it can no longer reach the output; assembleSweep never reads it.
var errCellCancelled = errors.New("harness: sweep cell cancelled")

// sweep walks rates × router.Archs with run over the pool in rate-major
// order and cuts the grid back to the stop-at-saturation output with
// assembleSweep. A cell that can no longer reach the output is skipped
// before it starts and cancelled while it runs: one above its series' end
// (the lowest rung at which it saturated, was infeasible or failed), or past
// the first real error once every lower rung of that error's series is kept.
func sweep(base SyntheticConfig, rates []float64, pool *exp.Pool, run pointRunner) ([]SweepPoint, error) {
	if len(rates) == 0 {
		return nil, nil
	}
	archs := router.Archs
	na := len(archs)
	end := make([]atomic.Int64, na) // each series' end rung
	for ai := range end {
		end[ai].Store(math.MaxInt64)
	}
	var firstErr atomic.Int64 // the first real error's cell index
	firstErr.Store(math.MaxInt64)
	kept := make([]atomic.Bool, len(rates)*na) // finished without ending its series
	past := func(i int) bool {
		e := int(firstErr.Load())
		j := e - na
		for i > e && j >= 0 && kept[j].Load() {
			j -= na
		}
		return int64(i/na) > end[i%na].Load() || i > e && j < 0
	}
	outs, err := exp.Map(context.Background(), pool, len(rates)*na,
		func(_ context.Context, i int) (pointOutcome, error) {
			if past(i) {
				return pointOutcome{err: errCellCancelled}, nil
			}
			cfg, ri, ai := base, i/na, i%na
			cfg.RateMBps, cfg.Arch = rates[ri], archs[ai]
			cfg.cancelled = func() bool { return past(i) }
			res, err := run(cfg, ai)
			switch {
			case errors.Is(err, errCellCancelled):
			case err != nil && !errors.Is(err, ErrRateInfeasible):
				lower(&firstErr, int64(i))
				fallthrough
			case err != nil || res.Saturated:
				lower(&end[ai], int64(ri))
			default:
				kept[i].Store(true)
			}
			return pointOutcome{res, err}, nil
		})
	if err != nil {
		return nil, err
	}
	return assembleSweep(rates, archs, outs)
}

// lower sets v to x when x is below it.
func lower(v *atomic.Int64, x int64) {
	for old := v.Load(); x < old && !v.CompareAndSwap(old, x); old = v.Load() {
	}
}

// pointOutcome is one sweep point's result, indexed rate-major
// (index = rateIdx*len(archs) + archIdx) in the grids assembleSweep takes.
type pointOutcome struct {
	res RunResult
	err error
}

// assembleSweep reconstructs the serial stop-at-saturation walk from a
// rate-major grid of outcomes: include results up to and including the
// first saturated point; an infeasible point ends the series; a real error
// is remembered at the point the serial loop would have hit it, so the
// output is the serial walk's bit for bit whatever order the cells ran in.
func assembleSweep(rates []float64, archs []router.Arch, outs []pointOutcome) ([]SweepPoint, error) {
	lastRate := 0 // index of the last SweepPoint the serial loop would append
	includeEnd := make([]int, len(archs))
	var firstErr error
	errRate, errArch := len(rates), len(archs)
	for ai := range archs {
		includeEnd[ai] = -1
		death := len(rates) - 1
		for ri := range rates {
			o := outs[ri*len(archs)+ai]
			if o.err != nil {
				if !errors.Is(o.err, ErrRateInfeasible) && (ri < errRate || (ri == errRate && ai < errArch)) {
					firstErr, errRate, errArch = o.err, ri, ai
				}
				death = ri
				break
			}
			includeEnd[ai] = ri
			if o.res.Saturated {
				death = ri
				break
			}
		}
		if death > lastRate {
			lastRate = death
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	points := make([]SweepPoint, 0, lastRate+1)
	for ri := 0; ri <= lastRate; ri++ {
		pt := SweepPoint{RateMBps: rates[ri], Results: map[router.Arch]RunResult{}}
		for ai, arch := range archs {
			if ri <= includeEnd[ai] {
				pt.Results[arch] = outs[ri*len(archs)+ai].res
			}
		}
		points = append(points, pt)
	}
	return points, nil
}

// SaturationMBps returns each architecture's saturation throughput: the
// highest accepted bandwidth observed across the sweep.
func SaturationMBps(points []SweepPoint) map[router.Arch]float64 {
	sat := map[router.Arch]float64{}
	for _, pt := range points {
		for arch, res := range pt.Results {
			if res.AcceptedMBps > sat[arch] {
				sat[arch] = res.AcceptedMBps
			}
		}
	}
	return sat
}

// DefaultRates returns a sweep ladder appropriate for the pattern on the
// full 8x8 system: coarse steps to saturation. Uniform-class patterns
// reach ~2.8 GB/s/node; permutations concentrate load and saturate lower.
func DefaultRates(pattern string) []float64 {
	var max float64
	switch pattern {
	case "uniform", "selfsimilar":
		max = 3400
	case "neighbor":
		max = 6200
	case "hotspot":
		max = 1400
	default: // transpose, bitcomp, bitrev, shuffle, tornado
		max = 2000
	}
	// Compute each rung directly as a fraction of max: repeated float
	// addition accumulates rounding error and can make the accumulated sum
	// overshoot max on the 17th step, silently dropping the top rung.
	rates := make([]float64, 0, 17)
	for i := 1; i <= 17; i++ {
		rates = append(rates, math.Round(max*float64(i)/17))
	}
	return rates
}
