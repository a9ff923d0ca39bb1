// Package stats gathers the performance measurements the paper reports:
// average packet latency, accepted throughput, and the windowed event
// counts that the power model converts into energy. Measurement follows the
// standard warmup / measure / drain discipline: only packets created inside
// the measurement window contribute to latency, and only deliveries inside
// the window contribute to throughput.
package stats

import (
	"math"
	"slices"

	"repro/internal/noc"
)

// denseCeiling bounds the dense tier of the latency record: latencies below
// it are counted per cycle, latencies at or above it are kept raw in the
// overflow tier. A drained point's latencies sit far below 1<<16 cycles, so
// only saturated drains and hostile images reach the overflow, and the dense
// counts never exceed 512 KB however long a latency a straggler packet or a
// restored image carries.
const denseCeiling = 1 << 16

// Collector accumulates packet statistics over a measurement window
// [MeasureStart, MeasureEnd) in cycles.
type Collector struct {
	MeasureStart int64
	MeasureEnd   int64

	created   int64
	delivered int64

	latencySum int64
	latencyMax int64
	// The latency record is an exact histogram in two tiers: counts[l] is
	// the number of measured packets that took l < denseCeiling cycles
	// (grown geometrically to the largest such latency seen), overflow holds
	// the rest raw, in no particular order. Together they hold delivered
	// values, so memory follows the largest latency, not the packet count.
	counts   []int64
	overflow []int64

	windowFlits   int64
	windowPackets int64
	createdFlits  int64
}

// NewCollector returns a collector for the given window.
func NewCollector(measureStart, measureEnd int64) *Collector {
	if measureEnd <= measureStart {
		panic("stats: empty measurement window")
	}
	return &Collector{MeasureStart: measureStart, MeasureEnd: measureEnd}
}

// Reserve is a no-op: the histogram's size follows the largest latency, not
// the packet count, so there is nothing to size ahead. It survives only for
// the benchmark rigs under benchmark/, its one caller.
func (c *Collector) Reserve(int) {}

// OnCreate registers a packet at creation time and marks it measured when
// it falls inside the window.
func (c *Collector) OnCreate(p *noc.Packet, cycle int64) {
	if cycle >= c.MeasureStart && cycle < c.MeasureEnd {
		p.Measured = true
		c.created++
		c.createdFlits += int64(p.Length)
	}
}

// OnDeliver registers a delivery: window throughput for any packet
// delivered inside the window, latency for measured packets whenever they
// complete (including during drain).
func (c *Collector) OnDeliver(p *noc.Packet, cycle int64) {
	if cycle >= c.MeasureStart && cycle < c.MeasureEnd {
		c.windowFlits += int64(p.Length)
		c.windowPackets++
	}
	if p.Measured {
		c.delivered++
		l := p.Latency()
		c.latencySum += l
		if l > c.latencyMax {
			c.latencyMax = l
		}
		c.add(l)
	}
}

// add files one non-negative latency in the histogram.
func (c *Collector) add(l int64) {
	if uint64(l) < uint64(len(c.counts)) {
		c.counts[l]++
		return
	}
	c.record(l)
}

// record is add's slow path for a latency the dense counts do not yet cover:
// it grows them geometrically, or files the latency in the overflow when it
// is at or past the ceiling.
func (c *Collector) record(l int64) {
	if l >= denseCeiling {
		c.overflow = append(c.overflow, l)
		return
	}
	n := max(2*len(c.counts), 64)
	for int64(n) <= l {
		n *= 2
	}
	counts := make([]int64, n)
	copy(counts, c.counts)
	c.counts = counts
	c.counts[l]++
}

// Created returns the number of measured packets created.
func (c *Collector) Created() int64 { return c.created }

// Delivered returns the number of measured packets delivered so far.
func (c *Collector) Delivered() int64 { return c.delivered }

// Complete reports whether every measured packet has been delivered.
func (c *Collector) Complete() bool { return c.delivered == c.created }

// MeanLatencyCycles returns the average latency of delivered measured
// packets, or NaN when none completed.
func (c *Collector) MeanLatencyCycles() float64 {
	if c.delivered == 0 {
		return math.NaN()
	}
	return float64(c.latencySum) / float64(c.delivered)
}

// MaxLatencyCycles returns the worst measured latency.
func (c *Collector) MaxLatencyCycles() int64 { return c.latencyMax }

// PercentileLatencyCycles returns the q-quantile (0 < q <= 1) of measured
// latencies: the nearest-rank value, element ceil(q·n)−1 of the sorted
// record, read off the cumulative histogram. Queries on an empty record or
// with q outside (0, 1] return NaN rather than panicking — saturated runs
// legitimately finish with no completed measured packets.
func (c *Collector) PercentileLatencyCycles(q float64) float64 {
	n := c.delivered
	if n == 0 || math.IsNaN(q) || q <= 0 || q > 1 {
		return math.NaN()
	}
	rank := min(max(int64(math.Ceil(q*float64(n)))-1, 0), n-1)
	for l, k := range c.counts {
		if rank < k {
			return float64(l)
		}
		rank -= k
	}
	slices.Sort(c.overflow)
	return float64(c.overflow[rank])
}

// LatencyPercentilesNs returns the P50/P95/P99 measured latencies scaled by
// the clock period — the tail summary every result emitter (synthetic runs,
// app replays, future-study points) reports. Centralized here so the NaN
// guard for empty records lives in exactly one place
// (PercentileLatencyCycles already yields NaN when nothing completed).
func (c *Collector) LatencyPercentilesNs(periodNs float64) (p50, p95, p99 float64) {
	return c.PercentileLatencyCycles(0.50) * periodNs,
		c.PercentileLatencyCycles(0.95) * periodNs,
		c.PercentileLatencyCycles(0.99) * periodNs
}

// AcceptedFlitsPerNodeCycle returns delivered throughput inside the window
// normalized per node per cycle.
func (c *Collector) AcceptedFlitsPerNodeCycle(nodes int) float64 {
	window := c.MeasureEnd - c.MeasureStart
	return float64(c.windowFlits) / (float64(nodes) * float64(window))
}

// WindowPackets returns the packets delivered inside the window.
func (c *Collector) WindowPackets() int64 { return c.windowPackets }

// WindowFlits returns the flits delivered inside the window.
func (c *Collector) WindowFlits() int64 { return c.windowFlits }

// CreatedFlits returns the flits offered (created) inside the window. Under
// stable load delivered and created flits balance; a shortfall signals
// saturation regardless of how many nodes actually inject (permutation
// patterns have non-injecting fixed points).
func (c *Collector) CreatedFlits() int64 { return c.createdFlits }
