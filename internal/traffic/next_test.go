package traffic

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
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

// procState is the process's complete state (parameters, burst state, RNG
// position), so equality means the two streams cannot diverge. Parameters
// print as bits, so a NaN rate equals itself.
func procState(p Process) string {
	switch p := p.(type) {
	case *Bernoulli:
		return fmt.Sprint(math.Float64bits(p.P), *p.RNG)
	case *SelfSimilar:
		return fmt.Sprint(math.Float64bits(p.AlphaOn), math.Float64bits(p.BOn), math.Float64bits(p.AlphaOff),
			math.Float64bits(p.TOff), *p.RNG, p.burstLeft, p.offLeft)
	}
	panic(fmt.Sprintf("procState: %T", p))
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
// through the same schedule of limits and requires the same answers and the
// same state (parameters, burst state, RNG position) after every call.
func TestNextMatchesTick(t *testing.T) {
	limits := []int64{0, 1, 3, 4, 5, 17, 1000, -2, 64, 2, 250}
	for _, rate := range []float64{0.001, 0.02, 0.25} {
		for name, mk := range sources(rate, 0xA11CE) {
			next, ref := mk(), mk()
			for step := 0; step < 4000; step++ {
				limit := limits[step%len(limits)]
				gap, hit := next.Next(limit)
				wantGap, wantHit := tickNext(ref, limit)
				if gap != wantGap || hit != wantHit {
					t.Fatalf("%s rate %v step %d limit %d: Next = (%d, %v), Tick loop = (%d, %v)",
						name, rate, step, limit, gap, hit, wantGap, wantHit)
				}
				if procState(next) != procState(ref) {
					t.Fatalf("%s rate %v step %d: state diverged from the Tick loop", name, rate, step)
				}
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
				if procState(next) != procState(ref) {
					t.Fatalf("%T p=%v limit %d: state diverged from the Tick loop", next, p, l)
				}
			}
		}
	})
}

// FuzzSkipMatchesTick checks a Bernoulli source following a skip map of its
// stream against the Tick loop of an unmapped twin, on gaps, hits and RNG
// position, for arbitrary source and map rates (the map's at, above or
// below the source's; 0 and >= 1 for the source, which consume nothing),
// windows ending mid-block or before the limits do (past it the source
// must scan, never skip), and a change of P mid-stream.
func FuzzSkipMatchesTick(f *testing.F) {
	f.Add(uint64(1), 0.001, 0.004, uint16(5000), int64(900), 0.002)
	f.Add(uint64(0xA11CE), 0.003, 0.003, uint16(95), int64(33), 0.01)
	f.Add(uint64(7), 0.05, 0.02, uint16(64), int64(31), 0.001)
	f.Add(uint64(8), 0.05, 0.01, uint16(5000), int64(4000), 0.05)
	f.Add(uint64(11), 0.02, 0.02, uint16(174), int64(3000), 0.02)
	f.Add(uint64(9), 0.0, 0.1, uint16(100), int64(50), 0.2)
	f.Add(uint64(3), 1.0, 0.5, uint16(100), int64(50), 1.5)
	f.Add(uint64(5), 2e-5, 1e-4, uint16(65535), int64(16383), math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, p, mapRate float64, window uint16, limit int64, retarget float64) {
		if !(mapRate > 0 && mapRate < 1) {
			t.Skip("ScanHits takes rates in (0, 1)")
		}
		limit %= 1 << 14 // bounds the reference loop, keeps negatives
		rng := sim.NewRNG(seed)
		h := rng.ScanHits(mapRate, int64(window), make([]uint64, sim.HitMapWords(int64(window))))
		next := &Bernoulli{P: p, RNG: rng}
		next.SkipWith(&h)
		ref := &Bernoulli{P: p, RNG: sim.NewRNG(seed)}
		// Walk arrival by arrival to past the window's last word, changing P
		// halfway; the call cap ends sources that consume nothing.
		limits := []int64{limit, limit/2 + 1, 7, 33}
		end := int64(sim.HitMapWords(int64(window))*64*sim.HitBlock) + 64
		retargeted := false
		for i, drawn := 0, int64(0); i < 300 && drawn < end; i++ {
			if !retargeted && drawn >= int64(window)/2 {
				next.P, ref.P = retarget, retarget
				retargeted = true
			}
			l := limits[i%len(limits)]
			gap, hit := next.Next(l)
			wantGap, wantHit := tickNext(ref, l)
			if gap != wantGap || hit != wantHit || *next.RNG != *ref.RNG {
				t.Fatalf("p=%v map %v window %d call %d limit %d: Next = (%d, %v) state %+v, Tick loop = (%d, %v) state %+v",
					next.P, mapRate, window, i, l, gap, hit, *next.RNG, wantGap, wantHit, *ref.RNG)
			}
			if drawn += gap; hit {
				drawn++
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

// BenchmarkSweepArrivals isolates the sweep's arrival map from the
// simulator: 64 streams over a 303 000-draw window are scanned for every
// arrival at the 12 per-cycle rates of lowload-uniform's cells, once with a plain
// Next per arrival and once with every stream following a skip map scanned
// at the top rate (its scan included in each op). draws/op counts the draws
// evaluated: the window once per rate plain; the map's scan plus the draws
// of its hit blocks once per rate mapped.
func BenchmarkSweepArrivals(b *testing.B) {
	const nodes, window = 64, 303_000
	// 10, 20 and 40 MB/s/node at the four architectures' clock periods.
	rates := []float64{0.00115, 0.0008625, 0.0009, 0.00095, 0.0023, 0.001725, 0.0018, 0.0019, 0.0046, 0.00345, 0.0036, 0.0038}
	top := slices.Max(rates)
	origins := make([]sim.RNG, nodes)
	for i := range origins {
		origins[i] = *sim.NewRNG(0xA11CE).Fork(uint64(i))
	}
	for _, mapped := range []bool{false, true} {
		b.Run(fmt.Sprintf("map=%v", mapped), func(b *testing.B) {
			var draws, hits int64
			for i := 0; i < b.N; i++ {
				var maps []sim.HitMap
				if mapped {
					words := sim.HitMapWords(window)
					bits := make([]uint64, nodes*words)
					maps = make([]sim.HitMap, nodes)
					for n, o := range origins {
						maps[n] = o.ScanHits(top, window, bits[n*words:(n+1)*words])
					}
					draws += nodes * window
				}
				for _, rate := range rates {
					for n, o := range origins {
						src := &Bernoulli{P: rate, RNG: &o}
						if mapped {
							src.SkipWith(&maps[n])
						}
						for left := int64(window); left > 0; {
							gap, hit := src.Next(left)
							left -= gap
							if hit {
								left--
								hits++
							}
						}
					}
					if !mapped {
						draws += nodes * window
					}
				}
				if mapped {
					draws += int64(len(rates)) * hitBlockDraws(maps, origins)
				}
			}
			scanSink = hits
			b.ReportMetric(float64(draws)/float64(b.N), "draws/op")
		})
	}
}

// hitBlockDraws counts the draws in the maps' hit blocks, the ones a mapped
// source still evaluates.
func hitBlockDraws(maps []sim.HitMap, origins []sim.RNG) int64 {
	var n int64
	for i := range maps {
		r := origins[i]
		for {
			run, hits := maps[i].Run(&r)
			if run == 0 {
				break
			}
			if hits {
				n += run
			}
			r.Skip(run)
		}
	}
	return n
}
