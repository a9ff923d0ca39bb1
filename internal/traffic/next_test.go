package traffic

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// tickNext is Next's specification: limit successive Tick calls, stopping
// after the first that reports a packet.
func tickNext(p Process, limit int64) (int64, bool) {
	for i := int64(0); i < limit; i++ {
		if p.Tick() {
			return i, true
		}
	}
	if limit < 0 {
		limit = 0
	}
	return limit, false
}

// procState is the process's complete serialized state (parameters, burst
// state, RNG position), so equality means the two streams cannot diverge.
func procState(t testing.TB, p Process) []byte {
	t.Helper()
	e := codec.NewEncoder()
	if err := SaveProcess(e, p); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// sources builds one fresh instance of each Process implementation at the
// given packet rate.
func sources(rate float64, seed uint64) map[string]func() Process {
	return map[string]func() Process{
		"bernoulli":   func() Process { return &Bernoulli{P: rate, RNG: sim.NewRNG(seed)} },
		"selfsimilar": func() Process { return NewSelfSimilar(rate, sim.NewRNG(seed)) },
	}
}

// TestNextMatchesTick walks a Next-driven process and a Tick-driven twin
// through the same schedule of limits — with a Retarget mid-stream and a
// SaveProcess/RestoreProcess round trip taken in the middle of a gap — and
// requires the same answers and byte-identical state after every call.
func TestNextMatchesTick(t *testing.T) {
	limits := []int64{0, 1, 3, 4, 5, 17, 1000, -2, 64, 2, 250}
	for _, rate := range []float64{0.001, 0.02, 0.25} {
		for name, mk := range sources(rate, 0xA11CE) {
			next, ref := mk(), mk()
			restored := false
			for step := 0; step < 4000; step++ {
				limit := limits[step%len(limits)]
				if step == 1500 {
					next.(Retargetable).Retarget(rate / 3)
					ref.(Retargetable).Retarget(rate / 3)
				}
				gap, hit := next.Next(limit)
				wantGap, wantHit := tickNext(ref, limit)
				if gap != wantGap || hit != wantHit {
					t.Fatalf("%s rate %v step %d limit %d: Next = (%d, %v), Tick loop = (%d, %v)",
						name, rate, step, limit, gap, hit, wantGap, wantHit)
				}
				state := procState(t, next)
				if !bytes.Equal(state, procState(t, ref)) {
					t.Fatalf("%s rate %v step %d: state diverged from the Tick loop", name, rate, step)
				}
				// Mid-gap round trip: the scan stopped at its limit with the
				// next packet still ahead. Carry on from a restored copy.
				if !hit && limit > 0 && step > 2000 && !restored {
					fresh := mk()
					if err := RestoreProcess(codec.NewDecoder(state), fresh); err != nil {
						t.Fatal(err)
					}
					next, restored = fresh, true
				}
			}
			if !restored {
				t.Errorf("%s rate %v: schedule never stopped mid-gap", name, rate)
			}
		}
	}
}

// FuzzNextMatchesTick checks Next against the Tick loop for arbitrary seeds,
// probabilities (any float64 bit pattern: negatives, NaN, subnormals, > 1)
// and limits, over a short chain of calls.
func FuzzNextMatchesTick(f *testing.F) {
	f.Add(uint64(1), math.Float64bits(0.25), int64(9))
	f.Add(uint64(0xA11CE), math.Float64bits(0.001), int64(5000))
	f.Add(uint64(7), math.Float64bits(math.NaN()), int64(13))
	f.Add(uint64(9), math.Float64bits(5e-324), int64(4))
	f.Add(uint64(3), math.Float64bits(1-1.0/(1<<53)), int64(0))
	f.Add(uint64(5), math.Float64bits(-1), int64(-3))
	f.Fuzz(func(t *testing.T, seed, pBits uint64, limit int64) {
		p := math.Float64frombits(pBits)
		limit %= 1 << 14 // bounds the reference loop, keeps negatives
		for name, mk := range sources(p, seed) {
			if name == "selfsimilar" && !(p > 0 && p < 1) {
				continue // NewSelfSimilar has no solution outside (0,1)
			}
			next, ref := mk(), mk()
			for _, l := range []int64{limit, limit/2 + 1, 7, limit} {
				gap, hit := next.Next(l)
				wantGap, wantHit := tickNext(ref, l)
				if gap != wantGap || hit != wantHit {
					t.Fatalf("%T p=%v limit %d: Next = (%d, %v), Tick loop = (%d, %v)",
						next, p, l, gap, hit, wantGap, wantHit)
				}
				if !bytes.Equal(procState(t, next), procState(t, ref)) {
					t.Fatalf("%T p=%v limit %d: state diverged from the Tick loop", next, p, l)
				}
			}
		}
	})
}

var scanSink int64

// BenchmarkArrivalScan reports the cost of one stream draw (ns/op = ns per
// simulated node-cycle) when the next arrival is found by a Tick per cycle
// (the loop the harness's arrival look-ahead used to run) versus one Next
// skip-ahead call, consuming b.N cycles arrival by arrival as the harness
// does.
func BenchmarkArrivalScan(b *testing.B) {
	scans := []struct {
		name string
		next func(Process, int64) (int64, bool)
	}{{"tick", tickNext}, {"next", Process.Next}}
	for _, rate := range []float64{0.001, 0.25} {
		for _, name := range []string{"bernoulli", "selfsimilar"} {
			for _, scan := range scans {
				b.Run(fmt.Sprintf("%s/p=%v/%s", name, rate, scan.name), func(b *testing.B) {
					p := sources(rate, 0xA11CE)[name]()
					hits := int64(0)
					b.ResetTimer()
					for left := int64(b.N); left > 0; {
						gap, hit := scan.next(p, left)
						left -= gap
						if hit {
							left--
							hits++
						}
					}
					scanSink = hits
				})
			}
		}
	}
}
