package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestSweepParallelDeterminism is the regression gate for the parallel
// experiment engine: a sweep fanned out over 8 workers must reproduce the
// serial stop-at-saturation output exactly — same points, same RunResult
// values (compared as formatted dumps, since NaN defeats ==), and the same
// rendered CSV byte for byte.
func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism sweep is slow")
	}
	base := fastCfg("uniform", 0)
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 800, 2000, 8000
	rates := []float64{600, 1400, 2200, 3000, 3800}

	serial, err := SweepSynthetic(base, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepSynthetic(base, rates, exp.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := fmt.Sprintf("%+v", par), fmt.Sprintf("%+v", serial); got != want {
		t.Errorf("parallel sweep diverged from serial\nparallel: %.400s\nserial:   %.400s", got, want)
	}
	if got, want := SweepCSV("uniform", par), SweepCSV("uniform", serial); got != want {
		t.Errorf("parallel sweep CSV diverged from serial\nparallel:\n%s\nserial:\n%s", got, want)
	}
}

// TestProbedRunParallelDeterminism checks that the observability layer is
// as deterministic as the simulation it watches: a set of probed runs and
// trace.Generate calls fanned out over an exp.Pool must produce the same
// event streams byte for byte at any worker count. The comparison is on the
// serialized Chrome trace (which encodes every recorded event, the ring
// drop count, and the sampler output), so any scheduling-dependent emit
// would surface as a byte diff.
func TestProbedRunParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("probed determinism fan-out is slow")
	}
	archs := []router.Arch{router.NonSpec, router.NoX}

	probedTraces := func(pool *exp.Pool) []string {
		out, err := exp.Map(context.Background(), pool, len(archs),
			func(_ context.Context, i int) (string, error) {
				pr := probe.New(probe.Config{RingEvents: 1 << 16, SampleEvery: 50})
				cfg := fastCfg("uniform", 2200)
				cfg.Arch = archs[i]
				cfg.Topo = noc.Topology{Width: 4, Height: 4}
				cfg.Probe = pr
				if _, err := RunSynthetic(cfg); err != nil {
					return "", err
				}
				var buf bytes.Buffer
				if err := pr.WriteChromeTrace(&buf); err != nil {
					return "", err
				}
				return buf.String(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	genTraces := func(pool *exp.Pool) []string {
		out, err := exp.Map(context.Background(), pool, len(trace.Workloads),
			func(_ context.Context, i int) (string, error) {
				tr := trace.Generate(trace.Workloads[i], noc.Topology{Width: 4, Height: 4}, 20000, 0xA11CE)
				return fmt.Sprintf("%+v", tr.Events), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	serialRuns, serialGen := probedTraces(exp.NewPool(1)), genTraces(exp.NewPool(1))
	for _, workers := range []int{3, 8} {
		pool := exp.NewPool(workers)
		for i, got := range probedTraces(pool) {
			if got != serialRuns[i] {
				t.Errorf("workers=%d: probed %s event stream diverged from serial (%d vs %d bytes)",
					workers, archs[i], len(got), len(serialRuns[i]))
			}
		}
		for i, got := range genTraces(pool) {
			if got != serialGen[i] {
				t.Errorf("workers=%d: trace.Generate(%s) diverged from serial",
					workers, trace.Workloads[i].Name)
			}
		}
	}
}

// TestSweepErrorPropagation checks that a real failure (unknown pattern)
// aborts the sweep on both the serial and the parallel path, and is not
// mistaken for an end-of-series condition.
func TestSweepErrorPropagation(t *testing.T) {
	base := fastCfg("not-a-pattern", 0)
	for name, pool := range map[string]*exp.Pool{"serial": nil, "parallel": exp.NewPool(4)} {
		if _, err := SweepSynthetic(base, []float64{300, 600}, pool); err == nil {
			t.Errorf("%s: unknown pattern did not propagate", name)
		} else if errors.Is(err, ErrRateInfeasible) {
			t.Errorf("%s: real failure misclassified as infeasible rate", name)
		}
	}
}

// TestSweepInfeasibleRateEndsSeries checks that a rate beyond one flit per
// cycle is the natural end of every architecture's curve — no error, a
// trailing point with no results — identically on both paths.
func TestSweepInfeasibleRateEndsSeries(t *testing.T) {
	base := fastCfg("uniform", 0)
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 400, 1000, 6000
	rates := []float64{250, 1e7}
	for name, pool := range map[string]*exp.Pool{"serial": nil, "parallel": exp.NewPool(4)} {
		pts, err := SweepSynthetic(base, rates, pool)
		if err != nil {
			t.Fatalf("%s: infeasible rate reported as failure: %v", name, err)
		}
		if len(pts) != 2 {
			t.Fatalf("%s: got %d points, want 2", name, len(pts))
		}
		if len(pts[0].Results) == 0 {
			t.Errorf("%s: feasible point has no results", name)
		}
		if len(pts[1].Results) != 0 {
			t.Errorf("%s: infeasible point has %d results, want none", name, len(pts[1].Results))
		}
	}
}

// TestSweepSkipsPastSeriesEnd pins the walk's two cuts. A fake pointRunner
// whose series ends are known (a saturated rung, an infeasible rung, a
// real error) records under a mutex when each cell starts and when each
// end cell returns: no cell above its series' end may start once the walk
// has had 5 ms to record that end, one worker must start exactly
// the cells of the serial stop-at-saturation walk (which stops at a real
// error too), and both must return the same output. A failure that
// a lower rung of its series hides must not cut other cells. A real run
// whose hook turns true at cycle c must return the sentinel by c +
// cancelPoll, in the main loop and in the drain, and a 2-worker sweep that
// cancels a real run must leave the sampler's runs started equal to its
// runs completed.
func TestSweepSkipsPastSeriesEnd(t *testing.T) {
	archs := router.Archs
	rates := make([]float64, 12)
	for i := range rates {
		rates[i] = float64(100 * (i + 1))
	}
	rung := func(rate float64) int { return int(rate)/100 - 1 }
	cases := []struct {
		name string
		ends []int // per arch: the rung that ends its series
		fail int   // arch whose end is a real error, -1 for none
	}{
		{"saturate", []int{2, 5, 8, len(rates)}, -1},
		{"error", []int{9, 3, len(rates), 4}, 1},
	}
	for _, tc := range cases {
		var serialOut string
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d-workers", tc.name, workers), func(t *testing.T) {
				type start struct {
					ri, ai int
					at     time.Time
				}
				var mu sync.Mutex
				var starts []start
				ended := make([]time.Time, len(archs)) // when each end cell returned
				fake := func(cfg SyntheticConfig, ai int) (RunResult, error) {
					ri := rung(cfg.RateMBps)
					mu.Lock()
					starts = append(starts, start{ri, ai, time.Now()})
					mu.Unlock()
					if ri == tc.ends[ai] {
						defer func() {
							mu.Lock()
							ended[ai] = time.Now()
							mu.Unlock()
						}()
					}
					switch {
					case ri == tc.ends[ai] && ai == tc.fail:
						return RunResult{}, ErrCycles
					case ri == tc.ends[ai] && ai == 1:
						return RunResult{}, ErrRateInfeasible
					case ri == tc.ends[ai]:
						// An end lands while later rungs of its series run.
						time.Sleep(3 * time.Millisecond)
						return RunResult{OfferedMBps: cfg.RateMBps, Saturated: true}, nil
					}
					for k := 0; k < 10; k++ {
						if cfg.cancelled() {
							return RunResult{}, errCellCancelled
						}
						time.Sleep(200 * time.Microsecond)
					}
					return RunResult{OfferedMBps: cfg.RateMBps}, nil
				}
				pts, err := sweep(SyntheticConfig{}, rates, exp.NewPool(workers), fake)
				if tc.fail >= 0 {
					if !errors.Is(err, ErrCycles) {
						t.Fatalf("got error %v, want the failing cell's", err)
					}
				} else if err != nil {
					t.Fatal(err)
				} else if got := len(pts); got != len(rates) {
					t.Fatalf("got %d points, want %d", got, len(rates))
				}
				if out := fmt.Sprintf("%+v %v", pts, err); workers == 1 {
					serialOut = out
				} else if out != serialOut {
					t.Errorf("%d workers returned\n%.400s\none worker\n%.400s", workers, out, serialOut)
				}
				errIdx := len(rates) * len(archs)
				if tc.fail >= 0 {
					errIdx = tc.ends[tc.fail]*len(archs) + tc.fail
				}
				serial := map[[2]int]bool{}
				for ri := range rates {
					for ai := range archs {
						if ri <= tc.ends[ai] && ri*len(archs)+ai <= errIdx {
							serial[[2]int{ri, ai}] = true
						}
					}
				}
				for _, s := range starts {
					if end := ended[s.ai]; s.ri > tc.ends[s.ai] && !end.IsZero() && s.at.Sub(end) > 5*time.Millisecond {
						t.Errorf("cell (rung %d, %s) started %v after its series ended", s.ri, archs[s.ai], s.at.Sub(end))
					}
					if !serial[[2]int{s.ri, s.ai}] && workers == 1 {
						t.Errorf("one worker started cell (rung %d, %s), which the serial walk skips", s.ri, archs[s.ai])
					}
				}
				if workers == 1 && len(starts) != len(serial) {
					t.Errorf("one worker started %d cells, the serial walk %d", len(starts), len(serial))
				}
			})
		}
	}

	t.Run("hidden-error", func(t *testing.T) {
		// Cell 4 (rung 1, arch 0) fails while cell 0 (rung 0, arch 0) still
		// runs, and cell 0 then saturates: the serial walk never reaches the
		// failure, so the cells past it must still run.
		failed := make(chan struct{})
		pts, err := sweep(SyntheticConfig{}, []float64{100, 200}, exp.NewPool(2), func(cfg SyntheticConfig, ai int) (RunResult, error) {
			switch {
			case ai == 0 && cfg.RateMBps == 100:
				<-failed
				return RunResult{Saturated: true}, nil
			case ai == 0:
				close(failed)
				return RunResult{}, ErrCycles
			}
			return RunResult{OfferedMBps: cfg.RateMBps}, nil
		})
		if err != nil {
			t.Fatalf("a failure above a saturated rung surfaced: %v", err)
		}
		if len(pts) != 2 || len(pts[1].Results) != len(archs)-1 {
			t.Fatalf("got %+v, want rung 1 without %s only", pts, archs[0])
		}
	})

	for _, tc := range []struct {
		name string
		rate float64
		c    int64
	}{{"main", 1000, 2000}, {"drain", 5000, 5000}} {
		t.Run("poll/"+tc.name, func(t *testing.T) {
			cfg := fastCfg("uniform", tc.rate)
			cfg.Arch = router.NoX
			var last, first int64 // latest delivery cycle, first at or past c
			cfg.Observe = func(_ *noc.Packet, cycle int64) {
				last = cycle
				if first == 0 && cycle >= tc.c {
					first = cycle
				}
			}
			cfg.cancelled = func() bool { return last >= tc.c }
			_, err := RunSynthetic(cfg)
			if !errors.Is(err, errCellCancelled) {
				t.Fatalf("run cancelled at cycle %d returned %v, want the sentinel", tc.c, err)
			}
			if first == 0 || last-first > cancelPoll {
				t.Errorf("run cancelled at cycle %d (first delivery there %d) delivered until %d, want by %d",
					tc.c, first, last, first+cancelPoll)
			}
		})
	}

	t.Run("sampler", func(t *testing.T) {
		// Cell 0 (rung 0, arch 0) saturates only once cell 4 (rung 1, arch
		// 0), a real run, has started, so the walk must cancel that run.
		prog := telemetry.NewSampler(time.Hour)
		base := fastCfg("uniform", 0)
		base.Progress = prog
		running := make(chan struct{})
		var cancelled bool
		_, err := sweep(base, []float64{600, 1200}, exp.NewPool(2), func(cfg SyntheticConfig, ai int) (RunResult, error) {
			switch {
			case ai != 0:
				return RunResult{OfferedMBps: cfg.RateMBps}, nil
			case cfg.RateMBps == 600:
				<-running
				return RunResult{Saturated: true}, nil
			}
			close(running)
			_, err := RunSynthetic(cfg)
			cancelled = errors.Is(err, errCellCancelled)
			return RunResult{}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cancelled {
			t.Fatal("the run above its series' end was not cancelled")
		}
		started, done := samplerMetric(t, prog, "nox_runs_started_total"), samplerMetric(t, prog, "nox_runs_completed_total")
		if started != "1" || done != "1" {
			t.Errorf("sampler counts %q runs started, %q completed; want 1 and 1", started, done)
		}
	})
}
