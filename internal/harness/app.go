package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

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
	// Recorder, when set, is this run's flight recorder: its probe shadows
	// both physical networks (unless Probe above claims the slot) and an
	// undrained run or checker violation triggers a failure-window dump.
	Recorder *telemetry.Recorder
	// Shards selects each physical network's execution mode (see
	// network.Config): 0 = auto, 1 = serial, N >= 2 = sharded. Results are
	// bit-identical at every setting.
	Shards int
	// Check, when set, arms the runtime invariant layer on both physical
	// networks (they share the checker; packet IDs are globally unique
	// across classes). The post-drain sweep runs before the result is
	// returned. Nil costs nothing.
	Check *check.Checker
	// CheckpointPath/CheckpointEvery, when both set, persist a resumable
	// replay checkpoint (both class networks plus the replay cursor and
	// statistics) to the path at least every CheckpointEvery cycles,
	// atomically overwriting the previous one. RestorePath resumes a replay
	// from such a file; the resumed run's AppResult is identical to the
	// uninterrupted run's. noxapp's -checkpoint/-restore flags.
	CheckpointPath  string
	CheckpointEvery int64
	RestorePath     string
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
// across architectures as required by §5.2.
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

	// An explicit Probe wins the probe slot; otherwise the flight recorder's
	// ring shadows the run (both physical networks interleave into it, the
	// same sharing an explicit probe gets).
	pr := cfg.Probe
	if pr == nil && cfg.Recorder != nil {
		pr = cfg.Recorder.Probe()
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

	multi := network.NewMulti(trace.NumClasses, network.Config{Topo: topo, Arch: cfg.Arch, BufferDepth: cfg.BufferDepth, Probe: pr, Shards: cfg.Shards, Check: cfg.Check, Observer: obs})
	defer multi.Close()
	// Every trace packet is measured: the collector's window spans the run,
	// giving the same latency record a serial tally would produce plus the
	// percentile machinery.
	col := stats.NewCollector(0, int64(1)<<62)
	var latencySum, latencySqSum float64
	var delivered int64
	multi.OnDeliver(func(p *noc.Packet, cycle int64) {
		l := float64(p.Latency())
		latencySum += l
		latencySqSum += l * l
		delivered++
		col.OnDeliver(p, cycle)
		cfg.Progress.CountDeliver(1, int64(p.Length))
	})
	cfg.Progress.RunStarted()

	events := cfg.Trace.Events
	idx := 0
	var pktID uint64

	cycle := int64(0)
	if cfg.RestorePath != "" {
		cur, err := loadAppCheckpoint(cfg.RestorePath, multi, col, len(events))
		switch {
		case err == nil:
			idx, pktID = cur.idx, cur.pktID
			latencySum, latencySqSum, delivered = cur.latencySum, cur.latencySqSum, cur.delivered
			cycle = multi.Cycle()
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint yet for this (workload, architecture): cold start.
		default:
			panic(fmt.Sprintf("harness: app restore %s: %v", cfg.RestorePath, err))
		}
	}
	nextCkpt := int64(-1)
	if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 {
		nextCkpt = cycle + cfg.CheckpointEvery
	}
	deadline := cfg.DrainCycles
	if len(events) > 0 {
		deadline += int64(float64(events[len(events)-1].TimePs)/periodPs) + 1
	}
	for cycle < deadline && (idx < len(events) || multi.Outstanding() > 0) {
		// Persist a resumable checkpoint between steps. The threshold (not a
		// modulus) tolerates the idle fast-forward jumping whole periods.
		if nextCkpt >= 0 && cycle >= nextCkpt {
			cur := appCursor{idx: idx, pktID: pktID, latencySum: latencySum, latencySqSum: latencySqSum, delivered: delivered}
			if err := saveAppCheckpoint(cfg.CheckpointPath, multi, col, cur); err != nil {
				fmt.Fprintln(os.Stderr, "harness: app checkpoint:", err)
				nextCkpt = -1
			} else {
				nextCkpt = cycle + cfg.CheckpointEvery
			}
		}
		// Traces have idle gaps between bursts; once every network has fully
		// quiesced, jump straight to the next event's injection cycle. The
		// fast-forward replays per-cycle hooks, so probed output is unchanged.
		if idx < len(events) && multi.Outstanding() == 0 {
			if due := int64(float64(events[idx].TimePs) / periodPs); due > cycle {
				if skipped := multi.FastForwardIdle(due - cycle); skipped > 0 {
					cycle += skipped
					cfg.Progress.Tick(cycle)
					continue
				}
			}
		}
		for idx < len(events) {
			due := int64(float64(events[idx].TimePs) / periodPs)
			if due > cycle {
				break
			}
			e := events[idx]
			idx++
			pktID++
			p, err := multi.InjectAs(pktID, e.Src, e.Dst, e.Flits, e.Class)
			if err != nil {
				panic(fmt.Sprintf("harness: trace event %d: %v", idx-1, err))
			}
			col.OnCreate(p, cycle)
			cfg.Progress.CountInject(1, int64(e.Flits))
		}
		multi.Step()
		cycle++
		cfg.Progress.Tick(cycle)
	}

	// With a checker armed and everything delivered, run the post-drain
	// invariant sweep across both physical networks.
	if multi.Outstanding() == 0 {
		multi.CheckInvariants()
	} else {
		cfg.Recorder.Trigger(cycle, fmt.Sprintf("undrained: %d packets outstanding after %d drain cycles", multi.Outstanding(), cfg.DrainCycles))
	}

	window := multi.Counters()
	res := AppResult{
		Arch:          cfg.Arch,
		Workload:      cfg.Trace.Workload.Name,
		PeriodNs:      periodNs,
		DeliveredPkts: delivered,
		InjectionMBps: cfg.Trace.MeanInjectionMBps(),
		Drained:       idx == len(events) && multi.Outstanding() == 0,
		Window:        window,
	}
	if delivered > 0 {
		res.MeanLatencyNs = latencySum / float64(delivered) * periodNs
		res.P50LatencyNs, res.P95LatencyNs, res.P99LatencyNs = col.LatencyPercentilesNs(periodNs)
		total := model.Energy(window, cfg.Arch == router.NoX).TotalPJ()
		res.PacketEnergyPJ = total / float64(delivered)
		// Average per-packet energy-delay^2: E[E_pkt * T^2] with the mean
		// packet energy as the per-packet energy estimate. Averaging T^2
		// per packet (rather than squaring the mean latency) is the literal
		// reading of "average packet energy-delay^2 product" and weights
		// the latency tails that misspeculation produces.
		res.EnergyDelay2 = res.PacketEnergyPJ * latencySqSum / float64(delivered) * periodNs * periodNs
	} else {
		res.MeanLatencyNs = math.NaN()
	}

	// Telemetry epilogue: fold this replay's datapath events into the live
	// per-arch counters, and dump the failure window if the checker or the
	// undrained exit tripped the flight recorder.
	cfg.Progress.RunDone(cfg.Arch.String(), window)
	if cfg.Recorder.Triggered() {
		if _, err := cfg.Recorder.Flush(func(w io.Writer) {
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

// AppCheckpoint threads noxapp's checkpoint/restore flags through
// RunAppAllArchs: with Dir set, each (workload, architecture) replay
// persists a resumable checkpoint named app-<workload>-<arch>.noxapp into
// it every Every cycles; with RestoreDir set, each replay resumes from its
// file when present (a missing file cold-starts). The zero value disables
// both.
type AppCheckpoint struct {
	Dir        string
	Every      int64
	RestoreDir string
}

// paths returns one replay's checkpoint and restore paths.
func (c AppCheckpoint) paths(workload string, arch router.Arch) (ckpt, restore string) {
	name := fmt.Sprintf("app-%s-%s.noxapp", workload, arch)
	if c.Dir != "" {
		ckpt = filepath.Join(c.Dir, name)
	}
	if c.RestoreDir != "" {
		restore = filepath.Join(c.RestoreDir, name)
	}
	return ckpt, restore
}

// RunAppAllArchs replays one trace on every architecture. The four replays
// are independent (the trace is read-only; each builds its own networks),
// so a pool with multiple workers runs them concurrently; shards
// additionally parallelizes within each replay (0 = auto). Results are
// identical at every setting. tel threads the tool's live telemetry into
// each replay (Telemetry{} disables it); ckpt threads the checkpoint and
// restore directories (AppCheckpoint{} disables them).
func RunAppAllArchs(tr *trace.Trace, bufferDepth int, pool *exp.Pool, shards int, tel Telemetry, ckpt AppCheckpoint) map[router.Arch]AppResult {
	results, _ := exp.Map(context.Background(), pool, len(router.Archs),
		func(_ context.Context, i int) (AppResult, error) {
			arch := router.Archs[i]
			ckptPath, restorePath := ckpt.paths(tr.Workload.Name, arch)
			return RunApp(AppConfig{Arch: arch, Trace: tr, BufferDepth: bufferDepth, Shards: shards,
				Progress:       tel.Progress,
				Recorder:       tel.recorder(fmt.Sprintf("app-%s-%s", tr.Workload.Name, arch)),
				CheckpointPath: ckptPath, CheckpointEvery: ckpt.Every, RestorePath: restorePath}), nil
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
