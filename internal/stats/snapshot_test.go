package stats

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/snapshot/codec"
)

// image is a collector record in wire layout, written field by field so a
// test can state any header/list combination, consistent or not.
type image struct {
	start, end, created, delivered, sum, max int64
	lats                                     []int64
	sorted                                   bool
	windowFlits, windowPackets, createdFlits int64
}

// liveImage is the record recordAll leaves in a [0, 1<<40) collector, laid
// out as the list-backed record saved it: insertion order, not sorted.
func liveImage(lats []int64) image {
	n := int64(len(lats))
	im := image{start: 0, end: 1 << 40, created: n, delivered: n, lats: lats,
		windowFlits: n, windowPackets: n, createdFlits: n}
	for _, l := range lats {
		im.sum += l
		im.max = max(im.max, l)
	}
	return im
}

func (im image) bytes() []byte {
	e := codec.NewEncoder()
	for _, v := range []int64{im.start, im.end, im.created, im.delivered, im.sum, im.max} {
		e.I64(v)
	}
	e.Int(len(im.lats))
	for _, l := range im.lats {
		e.I64(l)
	}
	e.Bool(im.sorted)
	e.I64(im.windowFlits)
	e.I64(im.windowPackets)
	e.I64(im.createdFlits)
	return e.Bytes()
}

func saved(c *Collector) []byte {
	e := codec.NewEncoder()
	c.SaveState(e)
	return e.Bytes()
}

// TestCollectorSnapshotRoundTrip: save → restore → save is byte-stable, a
// record in the list-backed layout (insertion order, sorted=false) restores
// to the same measurements, and an empty collector — every warm-start image
// holds one — encodes exactly the bytes the list-backed record wrote.
func TestCollectorSnapshotRoundTrip(t *testing.T) {
	records := map[string][]int64{
		"empty":    nil,
		"one":      {42},
		"unsorted": {30, 7, 7, 19, 3, 30, 250, 7},
		"overflow": {5, denseCeiling + 9, 12, denseCeiling, denseCeiling - 1, 3 * denseCeiling, 5},
	}
	for name, lats := range records {
		live := NewCollector(0, 1<<40)
		recordAll(live, lats)
		first := saved(live)

		back := NewCollector(1, 2)
		if err := back.RestoreState(codec.NewDecoder(first)); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if again := saved(back); !bytes.Equal(first, again) {
			t.Errorf("%s: re-save differs:\n%x\n%x", name, first, again)
		}

		old := NewCollector(1, 2)
		if err := old.RestoreState(codec.NewDecoder(liveImage(lats).bytes())); err != nil {
			t.Fatalf("%s: restore list-backed layout: %v", name, err)
		}
		if again := saved(old); !bytes.Equal(first, again) {
			t.Errorf("%s: list-backed image re-saves as\n%x, want\n%x", name, again, first)
		}
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
			got, want := old.PercentileLatencyCycles(q), live.PercentileLatencyCycles(q)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: q=%g restored %v, live %v", name, q, got, want)
			}
		}
		if got, want := old.MeanLatencyCycles(), live.MeanLatencyCycles(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s: mean restored %v, live %v", name, got, want)
		}
	}

	// [100, 200) window, zero counters, no latencies, sorted=false: the
	// list-backed record's bytes for a fresh collector.
	want := []byte{0xc8, 0x01, 0x90, 0x03, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if got := saved(NewCollector(100, 200)); !bytes.Equal(got, want) {
		t.Errorf("empty collector encodes %x, want %x", got, want)
	}
}

// TestCollectorRestoreRejectsInconsistent: a record whose latency list
// contradicts its own header is corrupt, and a failed restore leaves the
// collector exactly as it was.
func TestCollectorRestoreRejectsInconsistent(t *testing.T) {
	valid := liveImage([]int64{5, 9, 7})
	valid.created = 4
	cases := []struct {
		name string
		edit func(*image)
	}{
		{"count differs from delivered", func(im *image) { im.delivered = 4 }},
		{"negative latency", func(im *image) { im.lats = []int64{5, -9, 7}; im.sum, im.max = 3, 7 }},
		{"latency above max", func(im *image) { im.max = 8 }},
		{"max above every latency", func(im *image) { im.max = 10 }},
		{"latencies miss the sum", func(im *image) { im.sum = 22 }},
		{"delivered exceeds created", func(im *image) { im.created = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := valid
			tc.edit(&im)
			c := NewCollector(0, 1<<40)
			recordAll(c, []int64{100, 300, 200})
			before := saved(c)
			err := c.RestoreState(codec.NewDecoder(im.bytes()))
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("restore = %v, want ErrCorrupt", err)
			}
			if after := saved(c); !bytes.Equal(before, after) {
				t.Errorf("failed restore changed the collector:\n%x\n%x", before, after)
			}
		})
	}
	t.Run("truncated after the list", func(t *testing.T) {
		c := NewCollector(0, 1<<40)
		recordAll(c, []int64{100, 300, 200})
		before := saved(c)
		b := valid.bytes()
		if err := c.RestoreState(codec.NewDecoder(b[:len(b)-2])); !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("restore = %v, want ErrTruncated", err)
		}
		if after := saved(c); !bytes.Equal(before, after) {
			t.Errorf("failed restore changed the collector:\n%x\n%x", before, after)
		}
	})
}

// FuzzCollectorRestore: arbitrary bytes either fail with a typed error or
// restore a collector whose mean, maximum and percentiles are those of the
// decoded list, with a dense tier no latency value can push past the
// ceiling.
func FuzzCollectorRestore(f *testing.F) {
	f.Add(saved(NewCollector(100, 200)))
	for _, lats := range [][]int64{{42}, {30, 7, 7, 19, 3}, {5, denseCeiling + 9, denseCeiling - 1, 5}} {
		f.Add(liveImage(lats).bytes())
		c := NewCollector(0, 1<<40)
		recordAll(c, lats)
		f.Add(saved(c))
	}
	f.Add(liveImage([]int64{1 << 40}).bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCollector(0, 1)
		if err := c.RestoreState(codec.NewDecoder(data)); err != nil {
			if !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		d := codec.NewDecoder(data)
		for range 6 {
			d.I64()
		}
		lats := make([]int64, d.Len(1<<26))
		var sum int64
		for i := range lats {
			lats[i] = d.I64()
			sum += lats[i]
		}
		if d.Err() != nil || int64(len(lats)) != c.Delivered() {
			t.Fatalf("restored %d latencies, reference decode %d (%v)", c.Delivered(), len(lats), d.Err())
		}
		if len(c.counts) > denseCeiling {
			t.Fatalf("dense tier sized %d, ceiling %d", len(c.counts), denseCeiling)
		}
		if len(lats) == 0 {
			if !math.IsNaN(c.MeanLatencyCycles()) || !math.IsNaN(c.PercentileLatencyCycles(0.5)) || c.MaxLatencyCycles() != 0 {
				t.Fatal("empty record answers a latency")
			}
			return
		}
		if got, want := c.MeanLatencyCycles(), float64(sum)/float64(len(lats)); got != want {
			t.Fatalf("mean %v, reference %v", got, want)
		}
		if got, want := c.MaxLatencyCycles(), slices.Max(lats); got != want {
			t.Fatalf("max %d, reference %d", got, want)
		}
		for _, q := range []float64{1e-9, 0.5, 0.95, 0.99, 1} {
			if got, want := c.PercentileLatencyCycles(q), sortedPercentile(lats, q); got != want {
				t.Fatalf("q=%g: %v, reference %v", q, got, want)
			}
		}
	})
}
