package harness

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"

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
	// WarmRateMBps, when positive, is the warm-up injection rate: sources
	// run at it for the warmup window and are retargeted to RateMBps at the
	// measurement boundary (RNG streams and burst state preserved). This is
	// what makes the warm phase rate-independent, so warm-start sweeps can
	// share it; a cold run with the same WarmRateMBps executes identically.
	WarmRateMBps float64
	// WarmStart switches SweepSynthetic to warm-start
	// mode: warm once per architecture at WarmRateMBps (required), then
	// resume every rate point from a copy of the warm state. Output is
	// byte-identical to the cold sweep with the same WarmRateMBps.
	WarmStart bool
	// WarmSaveDir, when set in warm-start mode, persists each freshly
	// computed per-architecture warm image into the directory (atomic write;
	// file names pin every parameter the image depends on). WarmLoadDir,
	// when set, restores cached images from the directory instead of
	// re-running the warm phase; a missing file falls back to warming, a
	// corrupt one is an error. noxsweep's -checkpoint/-restore flags.
	WarmSaveDir string
	WarmLoadDir string
	// CheckpointPath/CheckpointEvery, when both set, persist a resumable
	// full-state checkpoint (network image plus harness run state) to the
	// path every CheckpointEvery main-loop cycles, atomically overwriting
	// the previous one. RestorePath resumes a run from such a file: the
	// network must have been configured identically (structural parameters
	// are verified against the image). noxsim's -checkpoint/-restore flags.
	CheckpointPath  string
	CheckpointEvery int64
	RestorePath     string
	// Eager disables the harness's sparse-regime accelerations — the
	// per-node next-arrival lookahead and the idle fast-forward between
	// injections — stepping every main-loop cycle the classic way. Output is
	// byte-identical either way; Eager is the reference mode the sparse
	// equivalence suite compares against (and the honest baseline for the
	// sparse benchmarks).
	Eager bool
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

// ErrRateInvalid marks an offered or warm-up rate no run can mean: negative,
// NaN or infinite, or zero for the self-similar source (whose OFF period
// has no zero-rate solution). Unlike ErrRateInfeasible it is a caller
// mistake, so sweeps propagate it instead of ending the series quietly.
var ErrRateInvalid = errors.New("invalid injection rate")

// CheckRate rejects an offered rate no run of the pattern can mean:
// negative, NaN or infinite, or zero for the self-similar source. A
// zero-rate Bernoulli run is the legal idle-network configuration; the Pareto
// ON/OFF source has no zero-rate solution for T_off. The error wraps
// ErrRateInvalid.
func CheckRate(pattern string, mbps float64) error {
	if err := checkBandwidth("offered", mbps); err != nil {
		return err
	}
	if pattern == "selfsimilar" && mbps == 0 {
		return fmt.Errorf("harness: selfsimilar traffic needs an offered rate above zero: %w", ErrRateInvalid)
	}
	return nil
}

// checkBandwidth rejects a negative, NaN or infinite rate.
func checkBandwidth(name string, mbps float64) error {
	if mbps < 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return fmt.Errorf("harness: %s rate %v MB/s/node is not a finite non-negative bandwidth: %w", name, mbps, ErrRateInvalid)
	}
	return nil
}

// RunSynthetic executes one (architecture, pattern, rate) point and
// returns its latency, throughput, and energy results.
//
// The run itself lives in synthMember (member.go): RunSynthetic builds one
// network and steps it between the member's per-cycle hooks.
func RunSynthetic(cfg SyntheticConfig) (RunResult, error) {
	var origin *warmImage
	if cfg.RestorePath != "" {
		var err error
		if origin, err = loadWarmFile(cfg.RestorePath); err != nil {
			return RunResult{}, fmt.Errorf("harness: restore %s: %w", cfg.RestorePath, err)
		}
	}
	return runSynthetic(cfg, origin)
}

// runSynthetic runs cfg from cycle 0, or resumed from origin (a checkpoint
// or a warm-start image) when it is non-nil.
func runSynthetic(cfg SyntheticConfig, origin *warmImage) (RunResult, error) {
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
	if origin != nil {
		if err := m.restoreWarm(origin); err != nil {
			return RunResult{}, fmt.Errorf("harness: restore %s: %w", cmp.Or(cfg.RestorePath, "warm image"), err)
		}
		m.origin = origin
	}

	// A flight-recorder replay stops once its recorder is Done.
	for cyc := net.Cycle(); cyc < m.total && !m.rec.Done(cyc); cyc = net.Cycle() {
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
	for !m.rec.Done(net.Cycle()) && m.needsDrainStep() {
		net.Step()
		m.cfg.Progress.Tick(net.Cycle())
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
// A pool with more than one worker runs every (rate, architecture) point
// speculatively in parallel and then truncates each architecture's series
// at its first saturated or infeasible point, reproducing the serial
// stop-at-saturation output bit for bit: same points, same RunResults,
// same rendered CSV. A nil pool (or one worker) runs the classic serial
// loop, which never simulates beyond a dead series.
func SweepSynthetic(base SyntheticConfig, rates []float64, pool *exp.Pool) ([]SweepPoint, error) {
	if base.WarmStart {
		return sweepWarm(base, rates, pool)
	}
	if pool.Workers() <= 1 || len(rates) == 0 {
		return sweepSerial(base, rates)
	}

	// Speculative fan-out: all points, rate-major so index order equals the
	// serial visit order.
	archs := router.Archs
	outs, err := exp.Map(context.Background(), pool, len(rates)*len(archs),
		func(_ context.Context, i int) (pointOutcome, error) {
			cfg := base
			cfg.RateMBps = rates[i/len(archs)]
			cfg.Arch = archs[i%len(archs)]
			res, err := cfg.runPoint()
			return pointOutcome{res, err}, nil
		})
	if err != nil {
		return nil, err
	}
	return assembleSweep(rates, archs, outs)
}

// pointOutcome is one speculative sweep point's result, indexed rate-major
// (index = rateIdx*len(archs) + archIdx) in the grids assembleSweep takes.
type pointOutcome struct {
	res RunResult
	err error
}

// assembleSweep reconstructs the serial stop-at-saturation walk from a
// rate-major grid of speculative outcomes: include results up to and
// including the first saturated point; an infeasible point ends the
// series; a real error is remembered at the point the serial loop would
// have hit it. Shared by the parallel cold and warm-start sweep paths so
// both reproduce sweepSerial's output bit for bit.
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

// runPoint runs one sweep point with the sweep's base configuration
// specialized to c's architecture and rate.
func (c SyntheticConfig) runPoint() (RunResult, error) {
	return RunSynthetic(c)
}

// sweepSerial is the one-point-at-a-time sweep: the reference semantics
// the parallel path must reproduce exactly.
func sweepSerial(base SyntheticConfig, rates []float64) ([]SweepPoint, error) {
	alive := map[router.Arch]bool{}
	for _, a := range router.Archs {
		alive[a] = true
	}
	var points []SweepPoint
	for _, rate := range rates {
		pt := SweepPoint{RateMBps: rate, Results: map[router.Arch]RunResult{}}
		for _, arch := range router.Archs {
			if !alive[arch] {
				continue
			}
			cfg := base
			cfg.Arch = arch
			cfg.RateMBps = rate
			res, err := cfg.runPoint()
			if err != nil {
				if errors.Is(err, ErrRateInfeasible) {
					alive[arch] = false
					continue
				}
				return nil, err
			}
			pt.Results[arch] = res
			if res.Saturated {
				alive[arch] = false
			}
		}
		points = append(points, pt)
		any := false
		for _, v := range alive {
			any = any || v
		}
		if !any {
			break
		}
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
