package telemetry

import (
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/power"
)

// Sampler aggregates live progress across every simulation a tool runs: a
// simulated-cycle counter fed by the kernel observer hook, injected and
// delivered packet/flit counters fed by the harness run loops, and
// per-architecture datapath event totals folded in as runs complete. It is
// the single sink behind the /metrics endpoint and the -progress log
// records.
//
// All counting methods are nil-receiver-safe and lock-free (atomics), so
// they can sit on hot paths and be called from sweep workers and shard
// epilogues concurrently. Tick throttles the expensive publish work
// (rate computation, logging) to one firing per interval no
// matter how many runs tick it.
type Sampler struct {
	every time.Duration

	log *slog.Logger // non-nil => progress records are logged

	start time.Time

	cycles           atomic.Int64
	active           atomic.Int64
	injectedPackets  atomic.Int64
	injectedFlits    atomic.Int64
	deliveredPackets atomic.Int64
	deliveredFlits   atomic.Int64
	runsStarted      atomic.Int64
	runsDone         atomic.Int64
	cyclesPerSec     atomic.Uint64 // math.Float64bits

	lastNanos atomic.Int64 // publish throttle (unix nanos of last publish)

	mu         sync.Mutex
	lastCycles int64
	arch       map[string]power.Counters
}

// NewSampler returns a sampler publishing at most once per interval
// (every <= 0 selects one second).
func NewSampler(every time.Duration) *Sampler {
	if every <= 0 {
		every = time.Second
	}
	now := time.Now()
	s := &Sampler{every: every, start: now, arch: map[string]power.Counters{}}
	s.lastNanos.Store(now.UnixNano())
	return s
}

// EnableLog makes Tick and Done emit progress records through l.
func (s *Sampler) EnableLog(l *slog.Logger) {
	if s != nil {
		s.log = l
	}
}

// Observe is the kernel observer hook (network.Config.Observer): it counts
// one simulated cycle and records the live active-component count. With
// several simulations running concurrently the cycle counter aggregates
// across all of them, and the active gauge reflects the most recent step of
// whichever network observed last.
func (s *Sampler) Observe(cycle int64, active int) {
	if s == nil {
		return
	}
	s.cycles.Add(1)
	s.active.Store(int64(active))
}

// CountInject records packets entering a network (flits = packets x length).
func (s *Sampler) CountInject(packets, flits int64) {
	if s == nil {
		return
	}
	s.injectedPackets.Add(packets)
	s.injectedFlits.Add(flits)
}

// CountDeliver records packets retired at their destination interface.
func (s *Sampler) CountDeliver(packets, flits int64) {
	if s == nil {
		return
	}
	s.deliveredPackets.Add(packets)
	s.deliveredFlits.Add(flits)
}

// RunStarted counts one simulation entering its run loop.
func (s *Sampler) RunStarted() {
	if s == nil {
		return
	}
	s.runsStarted.Add(1)
}

// RunDone counts one finished simulation and folds its measurement-window
// datapath events into the per-architecture totals.
func (s *Sampler) RunDone(arch string, window power.Counters) {
	if s == nil {
		return
	}
	s.runsDone.Add(1)
	s.mu.Lock()
	c := s.arch[arch]
	c.Add(window)
	s.arch[arch] = c
	s.mu.Unlock()
}

// Tick is the per-cycle call from run loops. At most once per interval it
// recomputes cycles/s and logs a progress record (when -progress is on);
// every other call is two atomic loads.
func (s *Sampler) Tick(cycle int64) {
	if s == nil {
		return
	}
	now := time.Now()
	last := s.lastNanos.Load()
	if now.UnixNano()-last < int64(s.every) {
		return
	}
	if !s.lastNanos.CompareAndSwap(last, now.UnixNano()) {
		return // another run's tick won the interval
	}
	elapsed := time.Duration(now.UnixNano() - last)
	s.publish(cycle, elapsed)
}

// Done emits a final progress record for a finished run loop.
func (s *Sampler) Done(cycle int64) {
	if s == nil {
		return
	}
	if s.log != nil {
		s.log.Info("progress: run loop finished",
			"cycle", cycle,
			"cycles_total", s.cycles.Load(),
			"mcycles_per_sec", float64(s.cycles.Load())/time.Since(s.start).Seconds()/1e6)
	}
}

func (s *Sampler) publish(cycle int64, elapsed time.Duration) {
	total := s.cycles.Load()
	s.mu.Lock()
	delta := total - s.lastCycles
	s.lastCycles = total
	s.mu.Unlock()
	cps := float64(delta) / elapsed.Seconds()
	s.cyclesPerSec.Store(math.Float64bits(cps))

	if s.log != nil {
		s.log.Info("progress",
			"cycle", cycle,
			"cycles_total", total,
			"mcycles_per_sec", cps/1e6,
			"injected_flits", s.injectedFlits.Load(),
			"delivered_flits", s.deliveredFlits.Load())
	}
}

// archSnapshot returns a copy of the per-architecture event totals.
func (s *Sampler) archSnapshot() map[string]power.Counters {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]power.Counters, len(s.arch))
	for k, v := range s.arch {
		out[k] = v
	}
	return out
}

// Register installs the sampler's metrics into reg.
func (s *Sampler) Register(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.AddCounterFunc("nox_cycles_total", "simulated cycles across all runs", func() float64 { return float64(s.cycles.Load()) })
	reg.AddGaugeFunc("nox_cycles_per_second", "simulated cycles per wall second over the last sample interval", func() float64 { return math.Float64frombits(s.cyclesPerSec.Load()) })
	reg.AddGaugeFunc("nox_active_components", "kernel components evaluated in the most recently observed step", func() float64 { return float64(s.active.Load()) })
	reg.AddCounterFunc("nox_injected_packets_total", "packets injected into simulated networks", func() float64 { return float64(s.injectedPackets.Load()) })
	reg.AddCounterFunc("nox_injected_flits_total", "flits injected into simulated networks", func() float64 { return float64(s.injectedFlits.Load()) })
	reg.AddCounterFunc("nox_delivered_packets_total", "packets delivered by simulated networks", func() float64 { return float64(s.deliveredPackets.Load()) })
	reg.AddCounterFunc("nox_delivered_flits_total", "flits delivered by simulated networks", func() float64 { return float64(s.deliveredFlits.Load()) })
	reg.AddCounterFunc("nox_runs_started_total", "simulation run loops started", func() float64 { return float64(s.runsStarted.Load()) })
	reg.AddCounterFunc("nox_runs_completed_total", "simulation run loops completed", func() float64 { return float64(s.runsDone.Load()) })
	reg.AddRaw(ArchEventWriter(s.archSnapshot))
}
