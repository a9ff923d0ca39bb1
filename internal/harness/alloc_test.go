package harness

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/router"
)

// TestSyntheticWindowAllocs pins the measurement path: a synthetic point's
// memory does not grow with the packets it delivers. A 16x longer
// measurement window at a load NoX carries (1500 MB/s/node, about 0.1
// packets per node per cycle) allocates at most 5 % more bytes; a record
// with one entry per measured packet allocates several times more. A warm
// cell runs first, so both measured cells build their network on recycled
// storage: otherwise the first cell would pay for the network and the second
// not, and the saving could hide growth of the window.
//
// A cell is deterministic and allocates the same bytes every run (about
// 10 KB), but TotalAlloc counts the whole process: the runtime's own
// goroutines — the unique-map cleanup after a GC cycle among them — now and
// then allocate a few hundred bytes to a few KB in the middle of a run, which
// against 10 KB would read as growth. So each window reads the fewest bytes
// of three runs: growth with the window is in every run, the noise in few.
func TestSyntheticWindowAllocs(t *testing.T) {
	allocated := func(measure int64) uint64 {
		cfg := SyntheticConfig{Arch: router.NoX, Pattern: "uniform", RateMBps: 1500,
			WarmupCycles: 1000, MeasureCycles: measure, DrainCycles: 12000, Shards: 1}
		fewest := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := RunSynthetic(cfg)
			runtime.ReadMemStats(&after)
			if err != nil || res.Saturated {
				t.Fatalf("window %d: err %v, saturated %v", measure, err, res.Saturated)
			}
			fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
		}
		return fewest
	}
	allocated(2000)
	short, long := allocated(2000), allocated(32000)
	t.Logf("2000-cycle window: %d KB, 32000-cycle window: %d KB", short>>10, long>>10)
	if float64(long) > 1.05*float64(short) {
		t.Errorf("2000-cycle window allocates %d KB, 32000-cycle window %d KB (%.2fx)",
			short>>10, long>>10, float64(long)/float64(short))
	}
}
