package harness

import (
	"errors"
	"fmt"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
	"repro/internal/traffic"
)

// Warm-start sweeps. Every rate point of a synthetic sweep spends
// WarmupCycles filling the network before its measurement window opens;
// across a 17-rung ladder times four architectures that warm-up is most of
// the wall clock at the low end of the ladder. With WarmStart enabled the
// harness runs the warm phase once per architecture at the common
// WarmRateMBps, snapshots the complete simulation state (network image plus
// the run state around it: collector, traffic processes, destination RNG
// streams), and resumes every rate point from the copy — retargeting the
// sources to the point's own rate at the warmup boundary, exactly as the
// cold path does. Because retargeting happens on both paths at the same
// cycle with the same RNG streams, a warm-start sweep's CSV is
// byte-identical to the cold sweep's (with the same WarmRateMBps).

// ErrWarmRate reports a warm-start sweep without a warm-up rate.
var ErrWarmRate = errors.New("harness: WarmStart requires WarmRateMBps > 0")

// warmImage is one architecture's shared warm state: the network snapshot
// and the harness run state saved at the warmup boundary, before the
// boundary cycle's injection.
type warmImage struct {
	net []byte
	run []byte
}

// saveRunState serializes the member's harness-side state — everything
// outside the network that the warm phase advanced: the delivery collector,
// the per-node traffic processes (parameters, burst state, RNG positions),
// the destination RNG streams, and the measurement-window counter baseline.
func (m *synthMember) saveRunState(e *codec.Encoder) error {
	m.col.SaveState(e)
	e.Int(len(m.procs))
	for _, p := range m.procs {
		if err := traffic.SaveProcess(e, p); err != nil {
			return err
		}
	}
	for _, r := range m.dests {
		e.U64(r.State())
	}
	m.startCounters.SaveState(e)
	// A lookahead member's Tick streams are consumed ahead of the clock, up
	// to each node's pending arrival — the RNG positions alone cannot
	// reconstruct those already-drawn arrivals, so the cache travels with
	// the state.
	if m.lookahead {
		for _, at := range m.arr {
			e.I64(at)
		}
	}
	return nil
}

// restoreRunState loads state saved by saveRunState into this attached
// member (attach built the process roster; restore overwrites its state).
// Saver and restorer share one configuration; a look-ahead mismatch fails
// with trailing bytes or truncation.
func (m *synthMember) restoreRunState(data []byte) error {
	d := codec.NewDecoder(data)
	if err := m.col.RestoreState(d); err != nil {
		return err
	}
	n := d.Len(1 << 20)
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(m.procs) {
		return fmt.Errorf("%w: %d traffic processes, network has %d nodes", codec.ErrCorrupt, n, len(m.procs))
	}
	for _, p := range m.procs {
		if err := traffic.RestoreProcess(d, p); err != nil {
			return err
		}
	}
	for _, r := range m.dests {
		r.SetState(d.U64())
	}
	if err := m.startCounters.RestoreState(d); err != nil {
		return err
	}
	if m.lookahead {
		for id := range m.arr {
			m.arr[id] = d.I64()
		}
		m.recomputeArrMin()
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after run state", codec.ErrCorrupt, d.Remaining())
	}
	return d.Err()
}

// restoreWarm rewinds this attached member to the warm image: network state
// first, then the harness run state around it.
func (m *synthMember) restoreWarm(w *warmImage) error {
	if err := snapshot.DecodeInto(w.net, m.net); err != nil {
		return err
	}
	return m.restoreRunState(w.run)
}

// warmSynthetic runs the shared warm phase for base's architecture: a run
// at WarmRateMBps, stopped at the warmup boundary (before the boundary
// cycle's injection, matching where resumed points pick up) and saved.
// Instrumentation is stripped — the warm phase is shared, so per-point
// recorders and probes would double-count it.
func warmSynthetic(base SyntheticConfig) (*warmImage, error) {
	cfg := base
	cfg.RateMBps = cfg.WarmRateMBps
	cfg.Probe = nil
	cfg.NewRecorder = nil
	cfg.Progress = nil
	cfg.Observe = nil
	m, err := prepareSynthetic(cfg)
	if err != nil {
		return nil, err
	}
	net, err := network.Build(m.netConfig())
	if err != nil {
		return nil, err
	}
	defer net.Close()
	m.attach(net)
	for cyc := int64(0); cyc < m.cfg.WarmupCycles; cyc++ {
		m.injectCycle(cyc)
		net.Step()
	}
	img, err := snapshot.Encode(net)
	if err != nil {
		return nil, err
	}
	e := codec.NewEncoder()
	if err := m.saveRunState(e); err != nil {
		return nil, err
	}
	return &warmImage{net: img, run: e.Bytes()}, nil
}

// sweepWarm is SweepSynthetic's warm-start mode: one warm phase per
// architecture, then every point resumes from its architecture's image on
// the cold sweep's walk, so the rendered CSV matches the cold sweep byte
// for byte. An architecture whose warm-up rate is already infeasible ends
// its series before the first rung, matching the cold semantics for a rate
// no clock can offer.
func sweepWarm(base SyntheticConfig, rates []float64, pool *exp.Pool) ([]SweepPoint, error) {
	if err := checkBandwidth("warm-up", base.WarmRateMBps); err != nil {
		return nil, err
	}
	if base.WarmRateMBps <= 0 {
		return nil, ErrWarmRate
	}
	if len(rates) == 0 {
		return nil, nil
	}
	warms := make([]*warmImage, len(router.Archs))
	warmErrs := make([]error, len(router.Archs))
	for ai, arch := range router.Archs {
		cfg := base
		cfg.Arch = arch
		warms[ai], warmErrs[ai] = warmSynthetic(cfg)
		if warmErrs[ai] != nil && !errors.Is(warmErrs[ai], ErrRateInfeasible) {
			return nil, warmErrs[ai]
		}
	}
	return sweep(base, rates, pool, func(cfg SyntheticConfig, ai int) (RunResult, error) {
		if warmErrs[ai] != nil {
			return RunResult{}, warmErrs[ai]
		}
		return runSynthetic(cfg, warms[ai])
	})
}
