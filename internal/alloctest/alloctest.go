// Package alloctest reads a test's heap allocations as the fewest of several
// readings: the runtime counts every goroutine's mallocs, the race
// detector's among them, so one reading can come out high, while an
// allocation the measured code makes is in every reading.
package alloctest

import (
	"math"
	"runtime"
	"testing"
)

const reads = 5

// Allocs returns the fewest of several testing.AllocsPerRun(runs, f)
// readings, each on the f that fresh returns for it (AllocsPerRun calls f
// runs+1 times: one warm-up call).
func Allocs(runs int, fresh func() func()) float64 {
	fewest := math.Inf(1)
	for range reads {
		fewest = min(fewest, testing.AllocsPerRun(runs, fresh()))
	}
	return fewest
}

// Bytes returns the fewest bytes one call allocates over several calls, each
// of the f that fresh returns for it.
func Bytes(fresh func() func()) uint64 {
	fewest := uint64(math.MaxUint64)
	for range reads {
		f := fresh()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
	}
	return fewest
}

// Same is a fresh function that returns f for every reading.
func Same(f func()) func() func() { return func() func() { return f } }
