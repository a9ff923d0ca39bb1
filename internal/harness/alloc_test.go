package harness

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/router"
)

// TestSyntheticWindowAllocs pins the measurement path: a synthetic point's
// memory does not grow with the packets it delivers. A 4x longer measurement
// window at a load NoX carries (1500 MB/s/node, about 0.1 packets per node
// per cycle) allocates at most 5 % more bytes; a record with one entry per
// measured packet allocates several times more (4.9x at these windows). A
// warm cell runs first, so both measured cells build their network on
// recycled storage: otherwise the first cell would pay for the network and
// the second not, and the saving could hide growth of the window.
func TestSyntheticWindowAllocs(t *testing.T) {
	run := func(measure int64) func() {
		cfg := SyntheticConfig{Arch: router.NoX, Pattern: "uniform", RateMBps: 1500,
			WarmupCycles: 300, MeasureCycles: measure, DrainCycles: 2000, Shards: 1}
		return func() {
			if res, err := RunSynthetic(cfg); err != nil || res.Saturated {
				t.Fatalf("window %d: err %v, saturated %v", measure, err, res.Saturated)
			}
		}
	}
	run(500)()
	short, long := alloctest.Bytes(alloctest.Same(run(500))), alloctest.Bytes(alloctest.Same(run(2000)))
	t.Logf("500-cycle window: %d KB, 2000-cycle window: %d KB", short>>10, long>>10)
	if float64(long) > 1.05*float64(short) {
		t.Errorf("500-cycle window allocates %d KB, 2000-cycle window %d KB (%.2fx)",
			short>>10, long>>10, float64(long)/float64(short))
	}
}
