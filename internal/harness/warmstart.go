package harness

import (
	"context"
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
	e.Bool(m.lookahead)
	if m.lookahead {
		for _, at := range m.arr {
			e.I64(at)
		}
	}
	return nil
}

// restoreRunState loads state saved by saveRunState into this attached
// member (attach built the process roster; restore overwrites its state).
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
	hadLookahead := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	switch {
	case hadLookahead && !m.lookahead:
		// The saver's streams ran ahead of the clock; an eager restorer
		// would re-draw Ticks the saver already consumed.
		return fmt.Errorf("%w: lookahead-saved run state restored into an eager member", codec.ErrUnsupported)
	case hadLookahead:
		for id := range m.arr {
			m.arr[id] = d.I64()
		}
		if err := d.Err(); err != nil {
			return err
		}
		m.recomputeArrMin()
	case m.lookahead:
		// Eager-saved state: the streams stand exactly at the seam, but
		// attach primed this member's arrival cache from freshly seeded
		// processes, so every cached arrival is stale. Re-prime from the
		// seam. Every save point sits before injectCycle(cyc) runs, so a
		// seam at or before the warmup boundary walls at the boundary (the
		// boundary's retarget block re-advances past it with the measurement
		// rate); only a later seam may consume post-boundary Ticks.
		cyc := m.net.Cycle()
		wall := m.total
		if cyc <= m.cfg.WarmupCycles {
			wall = m.cfg.WarmupCycles
		}
		for id := range m.arr {
			m.advanceArr(id, cyc, wall)
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
// architecture, then every point resumes from its architecture's image. The
// stop-at-saturation output is reconstructed exactly as the cold paths do,
// so the rendered CSV matches the cold sweep byte for byte. An architecture
// whose warm-up rate is already infeasible ends its series before the first
// rung, matching the cold semantics for a rate no clock can offer.
func sweepWarm(base SyntheticConfig, rates []float64, pool *exp.Pool) ([]SweepPoint, error) {
	if base.WarmRateMBps <= 0 {
		return nil, ErrWarmRate
	}
	if len(rates) == 0 {
		return nil, nil
	}
	archs := router.Archs
	warms := make([]*warmImage, len(archs))
	warmErrs := make([]error, len(archs))
	for ai, arch := range archs {
		cfg := base
		cfg.Arch = arch
		warms[ai], warmErrs[ai] = warmFor(cfg)
		if warmErrs[ai] != nil && !errors.Is(warmErrs[ai], ErrRateInfeasible) {
			return nil, warmErrs[ai]
		}
	}

	if pool.Workers() <= 1 {
		return sweepWarmSerial(base, rates, archs, warms, warmErrs)
	}
	outs, err := exp.Map(context.Background(), pool, len(rates)*len(archs),
		func(_ context.Context, i int) (pointOutcome, error) {
			ai := i % len(archs)
			if warmErrs[ai] != nil {
				return pointOutcome{err: warmErrs[ai]}, nil
			}
			cfg := base
			cfg.RateMBps = rates[i/len(archs)]
			cfg.Arch = archs[ai]
			res, err := runSynthetic(cfg, warms[ai])
			return pointOutcome{res, err}, nil
		})
	if err != nil {
		return nil, err
	}
	return assembleSweep(rates, archs, outs)
}

// sweepWarmSerial is sweepSerial with each point resumed from its
// architecture's warm image.
func sweepWarmSerial(base SyntheticConfig, rates []float64, archs []router.Arch, warms []*warmImage, warmErrs []error) ([]SweepPoint, error) {
	alive := make([]bool, len(archs))
	for ai := range archs {
		alive[ai] = warmErrs[ai] == nil
	}
	var points []SweepPoint
	for _, rate := range rates {
		pt := SweepPoint{RateMBps: rate, Results: map[router.Arch]RunResult{}}
		for ai, arch := range archs {
			if !alive[ai] {
				continue
			}
			cfg := base
			cfg.Arch = arch
			cfg.RateMBps = rate
			res, err := runSynthetic(cfg, warms[ai])
			if err != nil {
				if errors.Is(err, ErrRateInfeasible) {
					alive[ai] = false
					continue
				}
				return nil, err
			}
			pt.Results[arch] = res
			if res.Saturated {
				alive[ai] = false
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
