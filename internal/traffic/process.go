package traffic

import "repro/internal/sim"

// Process decides, per node and cycle, whether a packet is generated.
// Implementations are per-node (each node owns one instance with a private
// RNG) so bursts are independent across sources.
type Process interface {
	// Tick reports whether the node generates a packet this cycle.
	Tick() bool
	// Next advances the process exactly as limit successive Tick calls
	// would, stopping after the first that reports a packet: it returns the
	// number of packet-free cycles before it (hit true), or (limit, false)
	// with all limit cycles consumed. It costs what the traffic costs, not
	// one call per idle cycle. A non-positive limit consumes nothing.
	Next(limit int64) (gap int64, hit bool)
	// Rate returns the long-run packets-per-cycle rate the process targets.
	Rate() float64
}

// Bernoulli injects independently each cycle with fixed probability — the
// standard memoryless injection process for latency-throughput sweeps.
type Bernoulli struct {
	P   float64
	RNG *sim.RNG

	skip *sim.HitMap // see SkipWith
}

// SkipWith hands the source a skip map of its own stream, scanned from the
// RNG's current state. While P is positive and at most the map's rate, Next
// jumps the map's hit-free blocks instead of drawing them; outside the
// map's window it scans as before. Either way it consumes and answers
// exactly what the Tick loop would. The map is only read, so one map may
// serve every source that starts at its origin.
func (b *Bernoulli) SkipWith(h *sim.HitMap) { b.skip = h }

// Tick implements Process.
func (b *Bernoulli) Tick() bool { return b.RNG.Bernoulli(b.P) }

// Next implements Process.
func (b *Bernoulli) Next(limit int64) (gap int64, hit bool) {
	h := b.skip
	if h == nil || !(b.P > 0 && b.P <= h.Rate()) {
		return b.RNG.NextHit(b.P, limit)
	}
	for gap < limit {
		run, hits := h.Run(b.RNG)
		if run == 0 { // past the map's window
			g, hit := b.RNG.NextHit(b.P, limit-gap)
			return gap + g, hit
		}
		run = min(run, limit-gap)
		if !hits {
			b.RNG.Skip(run)
			gap += run
			continue
		}
		g, hit := b.RNG.NextHit(b.P, run)
		if gap += g; hit {
			return gap, true
		}
	}
	return gap, false
}

// Rate implements Process.
func (b *Bernoulli) Rate() float64 { return b.P }

// SelfSimilar is the Pareto ON/OFF source of §5.1 (after Kramer's
// pseudo-Pareto generator): during an ON burst whose length in packets is
// Pareto(AlphaOn, BOn) the node injects back-to-back, then idles for
// Pareto(AlphaOff, TOff) cycles. Aggregating many such sources yields
// self-similar, long-range-dependent traffic. The paper fixes alpha = 1.4
// and b = 8 and varies T_off to set the injection rate.
type SelfSimilar struct {
	AlphaOn, BOn   float64
	AlphaOff, TOff float64
	RNG            *sim.RNG

	burstLeft int
	offLeft   int
}

// NewSelfSimilar builds a source with the paper's parameters (alpha = 1.4,
// b = 8 for both phases) whose T_off is solved so the long-run rate is
// packets-per-cycle rate:
//
//	E[on] = b*alpha/(alpha-1), rate = E[on] / (E[on] + E[off])
//	=> E[off] = E[on]*(1-rate)/rate, T_off = E[off]*(alpha-1)/alpha.
func NewSelfSimilar(rate float64, rng *sim.RNG) *SelfSimilar {
	const alpha, b = 1.4, 8.0
	if rate <= 0 || rate >= 1 {
		panic("traffic: self-similar rate must be in (0,1)")
	}
	meanOn := b * alpha / (alpha - 1)
	meanOff := meanOn * (1 - rate) / rate
	return &SelfSimilar{
		AlphaOn: alpha, BOn: b,
		AlphaOff: alpha, TOff: meanOff * (alpha - 1) / alpha,
		RNG: rng,
	}
}

// Tick implements Process.
func (s *SelfSimilar) Tick() bool {
	if s.offLeft > 0 {
		s.offLeft--
		return false
	}
	s.emit()
	return true
}

// Next implements Process: the rest of an OFF period is skipped in one
// subtraction, then the burst emits its next packet.
func (s *SelfSimilar) Next(limit int64) (gap int64, hit bool) {
	if limit <= 0 {
		return 0, false
	}
	if s.offLeft > 0 {
		if int64(s.offLeft) >= limit {
			s.offLeft -= int(limit)
			return limit, false
		}
		gap = int64(s.offLeft)
		s.offLeft = 0
	}
	s.emit()
	return gap, true
}

// emit accounts one ON-cycle packet: it opens a new burst when none is in
// progress and draws the following OFF period when the burst ends.
func (s *SelfSimilar) emit() {
	if s.burstLeft == 0 {
		s.burstLeft = int(s.RNG.Pareto(s.AlphaOn, s.BOn) + 0.5)
		if s.burstLeft < 1 {
			s.burstLeft = 1
		}
	}
	s.burstLeft--
	if s.burstLeft == 0 {
		s.offLeft = int(s.RNG.Pareto(s.AlphaOff, s.TOff) + 0.5)
	}
}

// Rate implements Process.
func (s *SelfSimilar) Rate() float64 {
	meanOn := s.BOn * s.AlphaOn / (s.AlphaOn - 1)
	meanOff := s.TOff * s.AlphaOff / (s.AlphaOff - 1)
	return meanOn / (meanOn + meanOff)
}
