// Package noxnet is a from-scratch Go reproduction of "The NoX Router"
// (Hayenga & Lipasti, MICRO-44, 2011): a cycle-accurate wormhole
// network-on-chip simulator with four router microarchitectures — the
// XOR-coded NoX router plus its non-speculative and speculative baselines —
// together with the paper's synthetic and application workloads and its
// power, timing, and area models.
//
// The package is a thin facade over the internal packages; it exposes
// everything a user needs to build networks, drive the paper's experiments,
// and reproduce every table and figure in the evaluation. See README.md for
// a tour, DESIGN.md for the system inventory, and EXPERIMENTS.md for
// paper-versus-measured results.
//
// # Quick start
//
//	net := noxnet.NewNetwork(noxnet.NetworkConfig{Arch: noxnet.NoX})
//	net.OnDeliver = func(p *noxnet.Packet, cycle int64) {
//		fmt.Println("latency cycles:", p.Latency())
//	}
//	net.Inject(0, 63, 1, 0)
//	net.Drain(1000)
//
// A *Packet is valid until its OnDeliver returns — the network then recycles
// it — so read what you need there instead of keeping the pointer Inject
// returned.
//
// Or run a complete paper experiment:
//
//	res, err := noxnet.RunSynthetic(noxnet.SyntheticConfig{
//		Arch:     noxnet.NoX,
//		Pattern:  "uniform",
//		RateMBps: 2000,
//	})
package noxnet

import (
	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Arch selects a router microarchitecture (§3, Table 2).
type Arch = router.Arch

// The four router architectures evaluated by the paper.
const (
	// NonSpec is the sequential baseline: arbitrate then traverse within
	// one 0.92 ns cycle.
	NonSpec = router.NonSpec
	// SpecFast is the minimal-clock speculative router (0.69 ns).
	SpecFast = router.SpecFast
	// SpecAccurate is the accurate-scheduling speculative router (0.72 ns).
	SpecAccurate = router.SpecAccurate
	// NoX is the XOR-coded router of the paper (0.76 ns).
	NoX = router.NoX
)

// Archs lists all architectures in the paper's order.
var Archs = router.Archs

// Core network types.
type (
	// Topology is a 2-D mesh shape.
	Topology = noc.Topology
	// NodeID identifies a tile.
	NodeID = noc.NodeID
	// Packet is a unit of transfer; payloads are carried bit-exactly.
	Packet = noc.Packet
	// Network is a complete mesh NoC of one architecture.
	Network = network.Network
	// NetworkConfig parameterizes NewNetwork.
	NetworkConfig = network.Config
)

// NewNetwork builds a wired mesh network (defaults: 8x8, 4-flit buffers).
// It panics on an invalid configuration; BuildNetwork is the
// error-returning form for configurations assembled from user input.
func NewNetwork(cfg NetworkConfig) *Network { return network.New(cfg) }

// BuildNetwork validates and builds a network, returning ErrBadConfig-
// wrapped errors instead of panicking.
func BuildNetwork(cfg NetworkConfig) (*Network, error) { return network.Build(cfg) }

// ErrBadConfig is wrapped by every network configuration rejection.
var ErrBadConfig = network.ErrBadConfig

// ErrBadPacket is wrapped by Network.InjectChecked's rejections.
var ErrBadPacket = network.ErrBadPacket

// ErrNoProgress is wrapped by Network.DrainChecked when the watchdog
// declares the network wedged (deadlock, livelock, or drain-limit); the
// error message embeds a full diagnostic dump of the stuck state.
var ErrNoProgress = network.ErrNoProgress

// Robustness layer: runtime invariant checking and deterministic fault
// injection. Arm a network by setting NetworkConfig.Check (and optionally
// NetworkConfig.Fault); see cmd/noxfault for campaign automation.
type (
	// Checker is the runtime invariant layer: the end-to-end delivery
	// oracle, NoX protocol assertions, and post-drain conservation checks.
	Checker = check.Checker
	// CheckConfig selects which invariant families a Checker arms.
	CheckConfig = check.Config
	// Violation is one recorded invariant failure.
	Violation = check.Violation
	// FaultSpec is a replayable fault-campaign description (rates, window,
	// seed); campaigns are deterministic and shard-invariant.
	FaultSpec = fault.Spec
	// FaultInjector drives channel-level faults on one network.
	FaultInjector = fault.Injector
)

// NewChecker builds a runtime invariant checker to pass in
// NetworkConfig.Check.
func NewChecker(cfg CheckConfig) *Checker { return check.New(cfg) }

// AllChecks returns a CheckConfig with every invariant family armed.
func AllChecks() CheckConfig { return check.All() }

// NewFaultInjector builds an injector for the spec to pass in
// NetworkConfig.Fault (which also requires NetworkConfig.Check). It panics
// on an invalid spec; validate with FaultSpec.Validate first when the spec
// comes from user input.
func NewFaultInjector(spec FaultSpec) *FaultInjector { return fault.NewInjector(spec) }

// Observability types: flit-level tracing and per-router metrics. Set
// NetworkConfig.Probe to instrument a network; a nil probe disables all
// instrumentation at zero cost. See cmd/noxtrace for the command-line tool.
type (
	// Probe records a simulation's flit-level event stream and per-router
	// metrics, exportable as a Chrome/Perfetto trace, a textual waveform,
	// and CSV summaries.
	Probe = probe.Probe
	// ProbeConfig parameterizes a Probe (ring capacity, sampling interval,
	// timestamp scaling).
	ProbeConfig = probe.Config
	// ProbeEvent is one recorded microarchitectural event.
	ProbeEvent = probe.Event
)

// NewProbe builds an observability probe to pass in NetworkConfig.Probe.
func NewProbe(cfg ProbeConfig) *Probe { return probe.New(cfg) }

// Experiment harness types (Figures 8-12).
type (
	// SyntheticConfig parameterizes a synthetic-traffic run (§5.1).
	SyntheticConfig = harness.SyntheticConfig
	// RunResult is a synthetic run's latency/throughput/energy outcome.
	RunResult = harness.RunResult
	// SweepPoint is one offered-rate point of a Figure 8/9 sweep.
	SweepPoint = harness.SweepPoint
	// AppConfig parameterizes an application-trace replay (§5.2).
	AppConfig = harness.AppConfig
	// AppResult is an application run's outcome (Figures 10/11).
	AppResult = harness.AppResult
	// Workload is an application traffic profile.
	Workload = trace.Workload
	// Trace is a generated application trace.
	Trace = trace.Trace
	// SystemConfig mirrors Table 1.
	SystemConfig = harness.SystemConfig
	// EnergyModel maps datapath events to picojoules.
	EnergyModel = power.Model
	// EnergyCounters accumulates datapath events.
	EnergyCounters = power.Counters
)

// Pool is a deterministic worker pool for running independent experiment
// points concurrently. A nil *Pool runs everything serially.
type Pool = exp.Pool

// NewPool builds a pool with the given worker count; workers <= 0 sizes it
// to the available CPUs. Parallel experiment results are bit-identical to
// serial ones.
func NewPool(workers int) *Pool { return exp.NewPool(workers) }

// ErrRateInfeasible marks an offered rate the architecture's clock cannot
// physically inject (over one flit per cycle per node); sweeps treat it as
// the natural end of that architecture's curve, not a failure.
var ErrRateInfeasible = harness.ErrRateInfeasible

// ErrRateInvalid marks a negative or non-finite rate, or a zero rate with
// the self-similar source; unlike ErrRateInfeasible it is always a failure.
var ErrRateInvalid = harness.ErrRateInvalid

// RunSynthetic executes one (architecture, pattern, rate) point.
func RunSynthetic(cfg SyntheticConfig) (RunResult, error) { return harness.RunSynthetic(cfg) }

// SweepSynthetic sweeps all architectures across offered rates (Figs. 8/9),
// each series ending at saturation. A pool runs the points concurrently and
// skips those past a series' end; the output is the same for any pool,
// and nil runs serially.
func SweepSynthetic(base SyntheticConfig, rates []float64, pool *Pool) ([]SweepPoint, error) {
	return harness.SweepSynthetic(base, rates, pool)
}

// DefaultRates returns a sensible sweep ladder for a pattern on the 8x8
// system.
func DefaultRates(pattern string) []float64 { return harness.DefaultRates(pattern) }

// RunApp replays an application trace on one architecture (Figs. 10/11).
func RunApp(cfg AppConfig) AppResult { return harness.RunApp(cfg) }

// GenerateTrace synthesizes a deterministic application trace.
func GenerateTrace(w Workload, topo Topology, cpuCycles int64, seed uint64) *Trace {
	return trace.Generate(w, topo, cpuCycles, seed)
}

// Workloads lists the evaluated application profiles.
func Workloads() []Workload { return trace.Workloads }

// WorkloadByName returns the named application profile.
func WorkloadByName(name string) (Workload, error) { return trace.WorkloadByName(name) }

// PatternNames lists the synthetic patterns of Figures 8/9.
func PatternNames() []string { return traffic.PatternNames }

// Table1 returns the paper's common system parameters.
func Table1() SystemConfig { return harness.Table1() }

// ClockPeriodNs returns an architecture's Table 2 clock period.
func ClockPeriodNs(a Arch) float64 { return physical.ClockPeriodNs(a) }

// DefaultEnergyModel returns the calibrated 65 nm energy model.
func DefaultEnergyModel() EnergyModel { return power.DefaultModel() }

// Future-work study (§8): 64 cores as baseline mesh vs 4x4 concentrated
// mesh with radix-8 routers.
type (
	// SystemKind selects a 64-core organization (Mesh8x8 or CMesh4x4).
	SystemKind = harness.SystemKind
	// FutureConfig parameterizes one future-work run.
	FutureConfig = harness.FutureConfig
	// FutureStudy holds the mesh-vs-CMesh comparison results.
	FutureStudy = harness.FutureStudy
)

// The two 64-core organizations of the §8 study.
const (
	// Mesh8x8 is the paper's baseline organization.
	Mesh8x8 = harness.Mesh8x8
	// CMesh4x4 is the higher-radix concentrated mesh.
	CMesh4x4 = harness.CMesh4x4
)

// RunFuture executes one future-work point (system, architecture, rate).
func RunFuture(cfg FutureConfig) (RunResult, error) { return harness.RunFuture(cfg) }

// RunFutureStudy compares all architectures on both 64-core organizations.
// A multi-worker pool fans the points out; pass nil to run serially.
func RunFutureStudy(rates []float64, pattern string, seed uint64, pool *Pool) (*FutureStudy, error) {
	return harness.RunFutureStudy(rates, pattern, seed, pool)
}
