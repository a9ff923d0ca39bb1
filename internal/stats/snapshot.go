package stats

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/snapshot/codec"
)

// SaveState serializes the collector's accumulated measurements. The latency
// record goes out as the ascending list of its values (dense counts
// expanded, then the sorted overflow) followed by a sorted flag, the layout
// the list-backed record used: an empty collector encodes the same bytes,
// and a restored collector re-saves byte-identically.
func (c *Collector) SaveState(e *codec.Encoder) {
	e.I64(c.MeasureStart)
	e.I64(c.MeasureEnd)
	e.I64(c.created)
	e.I64(c.delivered)
	e.I64(c.latencySum)
	e.I64(c.latencyMax)
	e.Int(int(c.delivered))
	for l, k := range c.counts {
		for ; k > 0; k-- {
			e.I64(int64(l))
		}
	}
	slices.Sort(c.overflow)
	for _, l := range c.overflow {
		e.I64(l)
	}
	e.Bool(c.delivered > 0)
	e.I64(c.windowFlits)
	e.I64(c.windowPackets)
	e.I64(c.createdFlits)
}

// RestoreState loads state saved by SaveState, replacing the collector's
// measurements (the measurement window is restored too). The latency list
// may come in any order (images from the list-backed record kept insertion
// order), and its sorted flag is ignored. A record that contradicts its own
// header — a count other than delivered, more delivered than created, a
// negative latency, a maximum or sum the list does not produce — is
// ErrCorrupt, and on any error the collector is left as it was.
func (c *Collector) RestoreState(d *codec.Decoder) error {
	start := d.I64()
	end := d.I64()
	created := d.I64()
	delivered := d.I64()
	sum := d.I64()
	maxLat := d.I64()
	n := d.Len(1 << 26)
	if err := d.Err(); err != nil {
		return err
	}
	if end <= start {
		return fmt.Errorf("%w: empty measurement window [%d,%d)", codec.ErrCorrupt, start, end)
	}
	if int64(n) != delivered || delivered > created {
		return fmt.Errorf("%w: %d latencies for %d delivered of %d created", codec.ErrCorrupt, n, delivered, created)
	}
	r := Collector{MeasureStart: start, MeasureEnd: end, created: created, delivered: delivered}
	for i := 0; i < n; i++ {
		l := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		if l < 0 || l > maxLat {
			return fmt.Errorf("%w: latency %d outside [0,%d]", codec.ErrCorrupt, l, maxLat)
		}
		if r.latencySum > math.MaxInt64-l {
			return fmt.Errorf("%w: latency sum overflows", codec.ErrCorrupt)
		}
		r.latencySum += l
		r.latencyMax = max(r.latencyMax, l)
		r.add(l)
	}
	d.Bool()
	r.windowFlits = d.I64()
	r.windowPackets = d.I64()
	r.createdFlits = d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	if r.latencySum != sum || r.latencyMax != maxLat {
		return fmt.Errorf("%w: latencies sum to %d with maximum %d, header says %d and %d",
			codec.ErrCorrupt, r.latencySum, r.latencyMax, sum, maxLat)
	}
	*c = r
	return nil
}
