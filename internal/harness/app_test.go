package harness

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestAppClassConcurrency pins the concurrent app-replay schedule to the
// lockstep one. An unprobed serial replay steps each class network on its
// own goroutine at GOMAXPROCS 2 and both in lockstep at GOMAXPROCS 1, so
// every case runs under both and must report the same thing: every profile
// on every architecture; an undrained replay, whose request network drains
// long before the deadline and is caught up to it, compared down to its
// flight report (trigger cycle, each class network's cycle, the packets
// its interfaces hold); and traces naming a class or a node out of range,
// which must panic with the same message. A sampled replay must count each
// cycle once under both.
func TestAppClassConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	same := func(t *testing.T, what string, run func() string) {
		t.Helper()
		runtime.GOMAXPROCS(2)
		got := run()
		runtime.GOMAXPROCS(1)
		if want := run(); got != want {
			t.Errorf("%s: concurrent schedule\n%s\nlockstep\n%s", what, got, want)
		}
	}
	topo := noc.Topology{Width: 4, Height: 4}
	t.Run("profiles", func(t *testing.T) {
		for _, w := range trace.Workloads {
			tr := trace.Generate(w, topo, 3000, 11)
			for _, arch := range router.Archs {
				same(t, w.Name+"/"+arch.String(), func() string {
					return fmt.Sprintf("%+v", RunApp(AppConfig{Arch: arch, Trace: tr, Shards: 1}))
				})
			}
		}
	})
	w, err := trace.WorkloadByName("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(w, topo, 6000, 3)
	t.Run("undrained", func(t *testing.T) {
		same(t, "undrained", func() string {
			dir := t.TempDir()
			rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: dir, Label: "undrained", Window: 50,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			res := RunApp(AppConfig{Arch: router.NoX, Trace: tr, Shards: 1, DrainCycles: 2, Recorder: rec})
			report, err := os.ReadFile(filepath.Join(dir, "flight-undrained.report.txt"))
			if res.Drained || err != nil || !strings.Contains(string(report), "undrained: ") {
				t.Fatalf("drained %v, report %v:\n%s", res.Drained, err, report)
			}
			return fmt.Sprintf("%+v\n%s", res, strings.ReplaceAll(string(report), dir, "DIR"))
		})
	})
	for _, c := range []struct {
		name string
		edit func(*trace.Event)
	}{
		{"bad-class", func(e *trace.Event) { e.Class = trace.NumClasses }},
		{"bad-node", func(e *trace.Event) { e.Dst = noc.NodeID(topo.Nodes()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := *tr
			bad.Events = append([]trace.Event(nil), tr.Events...)
			// A reply-class event, then a later request: under the
			// concurrent schedule both class goroutines panic, and the
			// earlier event's panic is the one lockstep raises.
			class := 1
			for i := len(bad.Events) / 2; i < len(bad.Events) && class >= 0; i++ {
				if bad.Events[i].Class == class {
					c.edit(&bad.Events[i])
					class--
				}
			}
			same(t, c.name, func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				RunApp(AppConfig{Arch: router.NoX, Trace: &bad, Shards: 1})
				return "no panic"
			})
		})
	}
	t.Run("progress", func(t *testing.T) {
		// Only the request network counts cycles for the sampler, so under
		// either schedule nox_cycles_total is the cycle the replay ended on,
		// fast-forwarded idle gaps included.
		w, err := trace.WorkloadByName("barnes")
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(w, topo, 10000, 1)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			prog := telemetry.NewSampler(time.Hour)
			cfg := AppConfig{Arch: router.NoX, Trace: tr, Shards: 1, DrainCycles: 500_000, Progress: prog}
			r := newAppReplay(&cfg)
			end := r.replay().cycle
			r.close()
			if r.concurrent != (procs > 1) {
				t.Errorf("GOMAXPROCS %d: concurrent schedule %v", procs, r.concurrent)
			}
			if got := samplerMetric(t, prog, "nox_cycles_total"); got != fmt.Sprint(end) {
				t.Errorf("GOMAXPROCS %d: nox_cycles_total %s, replay ended on cycle %d", procs, got, end)
			}
		}
	})
}

// samplerMetric returns the value the sampler exports for the metric.
func samplerMetric(t *testing.T, prog *telemetry.Sampler, name string) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	prog.Register(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("sampler exports no %s", name)
	return ""
}

// TestMultiNetworkIsolation: a two-class replay delivers each class on its
// own physical network, and both networks end on the same cycle, under
// either schedule. The request is one flit and the reply nine on the same
// route, so the request network, done first, is caught up to the reply's.
// An event of a class with no network is refused.
func TestMultiNetworkIsolation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tr := &trace.Trace{Topo: noc.Topology{Width: 4, Height: 4}, Events: []trace.Event{
		{Src: 0, Dst: 15, Flits: 1, Class: 0},
		{Src: 0, Dst: 15, Flits: 9, Class: 1},
	}}
	bad := *tr
	bad.Events = append(bad.Events[:2:2], trace.Event{Src: 0, Dst: 15, Flits: 1, Class: trace.NumClasses})
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		func() {
			want := fmt.Sprintf("harness: trace event 2: %v: class 2 of 2", network.ErrBadPacket)
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("GOMAXPROCS %d: replay of a class-2 event panicked with %q, want %q", procs, got, want)
				}
			}()
			RunApp(AppConfig{Arch: router.NoX, Trace: &bad, DrainCycles: 1000})
		}()
		cfg := AppConfig{Arch: router.NoX, Trace: tr, DrainCycles: 1000}
		r := newAppReplay(&cfg)
		r.replay()
		req, rep := r.streams[0].net, r.streams[1].net
		for class, n := range []*network.Network{req, rep} {
			if n.Injected() != 1 || n.Delivered() != 1 {
				t.Errorf("GOMAXPROCS %d: class %d network injected %d, delivered %d; want 1 and 1",
					procs, class, n.Injected(), n.Delivered())
			}
		}
		if rep.Counters().LinkFlit != 9*req.Counters().LinkFlit {
			t.Errorf("GOMAXPROCS %d: link flits %d (request), %d (reply); want 1:9",
				procs, req.Counters().LinkFlit, rep.Counters().LinkFlit)
		}
		if req.Cycle() != rep.Cycle() {
			t.Errorf("GOMAXPROCS %d: networks end on cycles %d and %d", procs, req.Cycle(), rep.Cycle())
		}
		r.close()
	}
}

// TestAppWalk runs the one app walk over four traces on a two-worker pool.
// Its results must equal RunAppAllArchs run serially per trace; it must load
// each trace once, in index order, and drop each after its last replay; and
// counting through the load callback, no more than workers + 1 traces may
// be live at once.
func TestAppWalk(t *testing.T) {
	topo := noc.Topology{Width: 4, Height: 4}
	names := []string{"tpcc", "barnes", "ocean", "water"}
	gen := func(i int) *trace.Trace {
		w, err := trace.WorkloadByName(names[i])
		if err != nil {
			t.Fatal(err)
		}
		return trace.Generate(w, topo, 2500, uint64(i))
	}
	pool := exp.NewPool(2)
	var (
		mu            sync.Mutex
		order         []int
		live, maxLive int
		drops         = map[int]int{}
	)
	w := newAppWalk(len(names), func(i int) (*trace.Trace, error) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, i)
		live++
		maxLive = max(maxLive, live)
		return gen(i), nil
	})
	w.dropped = func(i int) {
		mu.Lock()
		defer mu.Unlock()
		live--
		drops[i]++
	}
	got, err := w.run(0, pool, 0, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Errorf("loads ran in order %v, want each trace once in index order", order)
	}
	if live != 0 || len(drops) != len(names) {
		t.Errorf("%d traces live after the walk, drops %v", live, drops)
	}
	if maxLive > pool.Workers()+1 {
		t.Errorf("%d traces live at once on %d workers", maxLive, pool.Workers())
	}
	for i := range names {
		want := RunAppAllArchs(gen(i), 0, nil, 0, Telemetry{}, AppCheckpoint{})
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("trace %d (%s): walk\n%+v\nserial\n%+v", i, names[i], got[i], want)
		}
	}
}

// TestAppWalkLoadError: a failed load stops the walk with that trace's
// error, and no later trace is loaded, at every pool size: a replay of a
// later trace that starts before the walk stops gets the same error.
func TestAppWalkLoadError(t *testing.T) {
	w, err := trace.WorkloadByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(w, noc.Topology{Width: 4, Height: 4}, 1500, 1)
	for _, workers := range []int{1, 2, 4} {
		var mu sync.Mutex
		var loads []int
		load := func(i int) (*trace.Trace, error) {
			mu.Lock()
			defer mu.Unlock()
			loads = append(loads, i)
			if i == 1 {
				return nil, fmt.Errorf("trace %d is empty", i)
			}
			return tr, nil
		}
		walk := newAppWalk(4, load)
		res, err := walk.run(0, exp.NewPool(workers), 0, Telemetry{})
		if res != nil || err == nil || err.Error() != "trace 1 is empty" {
			t.Errorf("%d workers: results %v, error %v; want trace 1's error", workers, res, err)
		}
		if _, err := walk.trace(3); err == nil || err.Error() != "trace 1 is empty" {
			t.Errorf("%d workers: trace 3 after the failure: error %v, want trace 1's", workers, err)
		}
		if !slices.Equal(loads, []int{0, 1}) {
			t.Errorf("%d workers: loaded %v, want [0 1]", workers, loads)
		}
	}
}
