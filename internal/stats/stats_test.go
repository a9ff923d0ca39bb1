package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/noc"
)

func pkt(id uint64, created int64, length int) *noc.Packet {
	return noc.NewPacket(id, 0, 1, length, 0, created)
}

func TestWindowMembership(t *testing.T) {
	c := NewCollector(100, 200)
	inside := pkt(1, 150, 1)
	before := pkt(2, 99, 1)
	after := pkt(3, 200, 1)
	c.OnCreate(inside, 150)
	c.OnCreate(before, 99)
	c.OnCreate(after, 200)
	if !inside.Measured || before.Measured || after.Measured {
		t.Fatal("window membership wrong")
	}
	if c.Created() != 1 {
		t.Fatalf("Created = %d", c.Created())
	}
}

func TestLatencyAccounting(t *testing.T) {
	c := NewCollector(0, 100)
	for i, lat := range []int64{10, 20, 30} {
		p := pkt(uint64(i), 10, 1)
		c.OnCreate(p, 10)
		p.DeliverCycle = 10 + lat
		c.OnDeliver(p, p.DeliverCycle)
	}
	if got := c.MeanLatencyCycles(); got != 20 {
		t.Errorf("mean latency = %v, want 20", got)
	}
	if got := c.MaxLatencyCycles(); got != 30 {
		t.Errorf("max latency = %v, want 30", got)
	}
	if !c.Complete() {
		t.Error("Complete should hold")
	}
}

// TestDrainLatencyCounted verifies measured packets delivered after the
// window still contribute latency but not throughput.
func TestDrainLatencyCounted(t *testing.T) {
	c := NewCollector(0, 100)
	p := pkt(1, 50, 1)
	c.OnCreate(p, 50)
	p.DeliverCycle = 500 // far beyond window
	c.OnDeliver(p, 500)
	if c.WindowFlits() != 0 {
		t.Error("post-window delivery counted toward throughput")
	}
	if c.MeanLatencyCycles() != 450 {
		t.Errorf("drain latency = %v, want 450", c.MeanLatencyCycles())
	}
}

// TestThroughputCountsUnmeasured verifies warmup-created packets delivered
// inside the window count toward accepted throughput.
func TestThroughputCountsUnmeasured(t *testing.T) {
	c := NewCollector(100, 200)
	p := pkt(1, 10, 9) // created pre-window
	c.OnCreate(p, 10)
	p.DeliverCycle = 150
	c.OnDeliver(p, 150)
	if c.WindowFlits() != 9 || c.WindowPackets() != 1 {
		t.Errorf("window flits/packets = %d/%d, want 9/1", c.WindowFlits(), c.WindowPackets())
	}
	if c.Delivered() != 0 {
		t.Error("unmeasured packet counted as measured delivery")
	}
}

func TestAcceptedThroughput(t *testing.T) {
	c := NewCollector(0, 100)
	for i := 0; i < 50; i++ {
		p := pkt(uint64(i), 0, 2)
		c.OnCreate(p, 0)
		p.DeliverCycle = 50
		c.OnDeliver(p, 50)
	}
	// 100 flits / (4 nodes * 100 cycles) = 0.25
	if got := c.AcceptedFlitsPerNodeCycle(4); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("accepted = %v, want 0.25", got)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector(0, 1000)
	for i := int64(1); i <= 100; i++ {
		p := pkt(uint64(i), 0, 1)
		c.OnCreate(p, 0)
		p.DeliverCycle = i
		c.OnDeliver(p, i)
	}
	if got := c.PercentileLatencyCycles(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := c.PercentileLatencyCycles(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := c.PercentileLatencyCycles(1.0); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector(0, 10)
	if !math.IsNaN(c.MeanLatencyCycles()) {
		t.Error("mean of no packets should be NaN")
	}
	if !math.IsNaN(c.PercentileLatencyCycles(0.5)) {
		t.Error("percentile of no packets should be NaN")
	}
	if !c.Complete() {
		t.Error("empty collector is trivially complete")
	}
}

func TestBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty window accepted")
		}
	}()
	NewCollector(10, 10)
}

// sortedPercentile is the definition the histogram must reproduce: the
// list-backed record's algorithm, sort and take element ceil(q·n)−1.
func sortedPercentile(lats []int64, q float64) float64 {
	s := slices.Clone(lats)
	slices.Sort(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(idx, 0), len(s)-1)])
}

// recordAll feeds the latencies to c as measured deliveries, one packet
// created at cycle 0 and delivered l cycles later for each.
func recordAll(c *Collector, lats []int64) {
	p := pkt(1, 0, 1)
	for _, l := range lats {
		p.Measured = false
		c.OnCreate(p, c.MeasureStart)
		p.DeliverCycle = l
		c.OnDeliver(p, l)
	}
}

// TestPercentilesMatchSortedRecord checks the histogram against the
// sort-and-index definition on seeded random multisets: heavy duplicates,
// values on both sides of the dense ceiling, and queries between batches of
// deliveries (the overflow is sorted in place, then appended to again).
func TestPercentilesMatchSortedRecord(t *testing.T) {
	qs := []float64{1e-9, 0.01, 0.5, 0.95, 0.99, 1}
	dists := map[string]func(*rand.Rand) int64{
		"duplicates": func(r *rand.Rand) int64 { return r.Int64N(8) },
		"dense":      func(r *rand.Rand) int64 { return r.Int64N(2000) },
		"ceiling":    func(r *rand.Rand) int64 { return denseCeiling - 100 + r.Int64N(200) },
		"wide":       func(r *rand.Rand) int64 { return r.Int64N(4 * denseCeiling) },
	}
	for name, draw := range dists {
		for seed, n := range []int{1, 2, 3, 10, 1000, 100_000} {
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(n)))
			lats := make([]int64, n)
			for i := range lats {
				lats[i] = draw(rng)
			}
			c := NewCollector(0, 1<<40)
			for _, k := range []int{n / 2, n} {
				if k == 0 {
					continue
				}
				recordAll(c, lats[c.Delivered():k])
				for _, q := range qs {
					if got, want := c.PercentileLatencyCycles(q), sortedPercentile(lats[:k], q); got != want {
						t.Fatalf("%s n=%d after %d: q=%g: histogram %v, sorted record %v", name, n, k, q, got, want)
					}
				}
			}
			if got, want := c.MaxLatencyCycles(), slices.Max(lats); got != want {
				t.Errorf("%s n=%d: max %d, want %d", name, n, got, want)
			}
			if len(c.counts) > denseCeiling {
				t.Errorf("%s n=%d: dense tier holds %d counts, ceiling %d", name, n, len(c.counts), denseCeiling)
			}
			for _, q := range []float64{0, -0.5, 1.5, math.NaN()} {
				if got := c.PercentileLatencyCycles(q); !math.IsNaN(got) {
					t.Errorf("%s n=%d: q=%g answered %v, want NaN", name, n, q, got)
				}
			}
		}
	}
}

// TestCollectorRecordAllocs pins the measurement path allocation-free: once
// the histogram covers a latency, OnCreate + OnDeliver allocate nothing.
func TestCollectorRecordAllocs(t *testing.T) {
	c := NewCollector(0, 1<<40)
	recordAll(c, []int64{999}) // the dense counts now cover [0, 1024)
	p := pkt(1, 0, 1)
	var l int64
	if avg := alloctest.Allocs(1000, alloctest.Same(func() {
		l = (l + 37) % 1000
		p.Measured = false
		c.OnCreate(p, 0)
		p.DeliverCycle = l
		c.OnDeliver(p, l)
	})); avg != 0 {
		t.Errorf("OnCreate+OnDeliver allocates %v allocs/op", avg)
	}
}

// record is c's measurements in one canonical form: the counters and the
// ascending list of recorded latencies, whatever the histogram's tiers.
func record(c *Collector) string {
	lats := slices.Clone(c.overflow)
	for l, k := range c.counts {
		for ; k > 0; k-- {
			lats = append(lats, int64(l))
		}
	}
	slices.Sort(lats)
	return fmt.Sprint(c.MeasureStart, c.MeasureEnd, c.created, c.delivered, c.latencySum, c.latencyMax,
		c.windowFlits, c.windowPackets, c.createdFlits, lats)
}

// TestCollectorMerge: two collectors fed the halves of one packet stream
// merge into exactly the collector fed all of it — the same record,
// percentiles included — whichever half is larger, with latencies on both
// sides of the dense ceiling, and an empty collector merges as a no-op.
func TestCollectorMerge(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 9))
	lats := make([]int64, 3000)
	for i := range lats {
		lats[i] = r.Int64N(300)
		if i%97 == 0 {
			lats[i] = denseCeiling + r.Int64N(1000)
		}
	}
	for _, cut := range []int{0, 10, 2500, len(lats)} {
		whole, a, b := NewCollector(0, 1<<20), NewCollector(0, 1<<20), NewCollector(0, 1<<20)
		recordAll(whole, lats)
		recordAll(a, lats[:cut])
		recordAll(b, lats[cut:])
		a.Merge(b)
		if got, want := record(a), record(whole); got != want {
			t.Errorf("cut %d: merged record differs from the whole stream's", cut)
		}
		if got, want := a.PercentileLatencyCycles(0.99), whole.PercentileLatencyCycles(0.99); got != want {
			t.Errorf("cut %d: merged P99 %v, want %v", cut, got, want)
		}
	}
}
