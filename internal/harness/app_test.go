package harness

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
// which must panic with the same message.
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
}
