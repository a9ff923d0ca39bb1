// Package exp provides the experiment-level parallelism layer: a
// deterministic worker pool that fans independent simulation points across
// goroutines and collects their results in submission order.
//
// Every simulation in this repository is a pure function of its
// configuration (each point owns its network, counters, and RNG streams;
// see internal/sim), so points may execute concurrently and in any order
// without perturbing each other. The pool exploits that: results come back
// indexed, so callers observe exactly the output a serial loop would have
// produced — bit-identical tables and CSV — only sooner.
package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// busyWorkers counts fn invocations currently executing across every Map in
// the process — the worker-pool occupancy gauge the telemetry server
// exposes. Process-global so observability code needs no handle on the
// pools a tool happens to build.
var busyWorkers atomic.Int64

// BusyWorkers returns how many Map invocations are executing right now.
func BusyWorkers() int64 { return busyWorkers.Load() }

// run invokes fn for one index, bracketed by the occupancy gauge.
func run[T any](ctx context.Context, fn func(ctx context.Context, i int) (T, error), i int) (T, error) {
	busyWorkers.Add(1)
	defer busyWorkers.Add(-1)
	return fn(ctx, i)
}

// Pool bounds the number of simulation points running concurrently.
// A nil *Pool is valid and runs everything serially, as does NewPool(1).
type Pool struct {
	workers int
}

// NewPool returns a pool running up to workers points concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0), one worker per schedulable
// CPU, which is the right size for the CPU-bound simulations here.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the concurrency bound; 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Map runs fn(ctx, i) for every i in [0, n) using at most p.Workers()
// goroutines and returns the results in index order, regardless of
// completion order.
//
// If any invocation returns an error, the context passed to outstanding
// invocations is cancelled, no further indices are started, and Map returns
// a nil slice with the error of the lowest failing index that ran — the
// same error a serial in-order loop stopping at its first failure would
// report, provided fn is deterministic per index. If ctx is cancelled
// externally, Map returns ctx.Err().
//
// With one worker (or n <= 1) Map degenerates to the serial loop itself:
// indices run in order on the calling goroutine and the first error stops
// the sweep immediately.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := run(ctx, fn, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]T, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				v, err := run(ctx, fn, i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
