package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/probe"
)

// DefaultFlightWindow is the failure window W, in cycles, a flight dump
// covers when the recorder's config leaves Window zero.
const DefaultFlightWindow = 4096

// DefaultFlightKeep is the number of flight dumps retained per directory
// when RecorderConfig.Keep is zero. Long fault campaigns can trip hundreds
// of recorders; without a cap the dump directory grows without bound.
const DefaultFlightKeep = 16

// flightDumps counts failure-window dumps written by every recorder in the
// process, for the nox_flight_dumps_total metric.
var flightDumps atomic.Int64

// FlightDumps returns the number of failure-window dumps written so far.
func FlightDumps() int64 { return flightDumps.Load() }

// DefaultFlightDir returns the dump directory used when RecorderConfig.Dir
// is empty.
func DefaultFlightDir() string { return filepath.Join(os.TempDir(), "nox-flight") }

// RecorderConfig configures one flight recorder.
type RecorderConfig struct {
	// Window is the failure window W in cycles; a dump covers
	// [trigger-W+1, trigger]. 0 selects DefaultFlightWindow.
	Window int64
	// Dir receives the dump files. Empty selects DefaultFlightDir().
	Dir string
	// Label distinguishes this recorder's dump files: flight-<label>.trace.json
	// and flight-<label>.report.txt. Sanitized to filesystem-safe characters.
	Label string
	// Keep caps the number of dump stems retained in Dir: after a successful
	// dump, the oldest stems beyond the cap are evicted (trace and report).
	// 0 selects DefaultFlightKeep; negative disables eviction.
	Keep int
	// PeriodNs scales trace timestamps; settable later via SetPeriodNs.
	PeriodNs float64
	// Logger receives the dump notice; nil uses slog.Default().
	Logger *slog.Logger
}

// Recorder is the always-on flight recorder. While a run is healthy it
// records nothing and attaches nothing: it only latches the first failure
// trigger (oracle violation, watchdog trip, drain deadlock, fault-driven
// reconfiguration) with its cycle and reason. Every run is a pure function
// of its configuration, so on a trigger Flush re-runs it — once, serially,
// from the point the run started, under a recorder of its own that carries
// the probe — and dumps the last W cycles of events to a Perfetto/Chrome
// trace plus a diagnostic report. The replay stops once it has tripped and
// stepped past the trigger cycle, so a tripped run executes once more only
// up to its failure; a healthy run pays nothing.
//
// Trigger may be called from shard workers (the checker observer fires
// under concurrent stepping); it only latches trigger metadata. Flush must
// be called once stepping has stopped.
//
// A nil *Recorder is a valid disarmed recorder: every method no-ops.
type Recorder struct {
	cfg RecorderConfig
	// pr and end are set only on the recorder Flush hands a replay: the
	// probe that records the window, and the window's last cycle.
	pr  *probe.Probe
	end int64

	trig atomic.Bool // fast path for the checker observer

	mu        sync.Mutex
	triggered bool
	cycle     int64
	reason    string
	flushed   bool
}

// NewRecorder returns an armed recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Window <= 0 {
		cfg.Window = DefaultFlightWindow
	}
	if cfg.Dir == "" {
		cfg.Dir = DefaultFlightDir()
	}
	if cfg.Label == "" {
		cfg.Label = "run"
	}
	if cfg.Keep == 0 {
		cfg.Keep = DefaultFlightKeep
	}
	return &Recorder{cfg: cfg}
}

// SetPeriodNs sets the clock period used for trace timestamps.
func (r *Recorder) SetPeriodNs(ns float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cfg.PeriodNs = ns
	r.mu.Unlock()
}

// Probe returns the probe a replay's network must carry, and nil for the
// recorder of a live run, which attaches nothing (so the recorder overhead
// rig of its other caller, benchmark/rigs.go:641, times a bare network).
func (r *Recorder) Probe() *probe.Probe {
	if r == nil {
		return nil
	}
	return r.pr
}

// Done reports whether a replay may stop stepping at cycle, the network's
// clock: it has latched its trigger and stepped every cycle of the window.
// It is always false for the recorder of a live run.
func (r *Recorder) Done(cycle int64) bool {
	return r != nil && r.pr != nil && cycle > r.end && r.trig.Load()
}

// BindChecker installs a violation observer on ck so the first recorded
// violation (oracle, protocol, watchdog) arms the dump.
func (r *Recorder) BindChecker(ck *check.Checker) {
	if r == nil || ck == nil {
		return
	}
	ck.SetObserver(func(v check.Violation) {
		if r.trig.Load() {
			return
		}
		r.Trigger(v.Cycle, fmt.Sprintf("check violation: %s", v))
	})
}

// Trigger latches the failure that a later Flush will dump. The first
// trigger wins; subsequent calls are no-ops. Safe from any goroutine.
func (r *Recorder) Trigger(cycle int64, reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.triggered {
		r.triggered = true
		r.cycle = cycle
		r.reason = reason
		r.trig.Store(true)
	}
	r.mu.Unlock()
}

// Triggered reports whether a failure has been latched.
func (r *Recorder) Triggered() bool {
	return r != nil && r.trig.Load()
}

// Window returns the cycle window [start, end] a dump would cover, valid
// once triggered.
func (r *Recorder) Window() (start, end int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(r.cycle-r.cfg.Window+1, 0), r.cycle
}

// Flush writes the failure-window dump if a trigger is latched. It calls
// replay with a fresh recorder, which must re-run the failing run from the
// point it started (cycle 0, or the image it was restored from) on a
// serial network carrying the fresh recorder's Probe, without the run's
// side effects (progress, observers, checkpoint writes, output), and with
// that recorder in the run's place: bound to a fresh checker and tripped
// by the same drain and reconfiguration hooks. The replay may stop once
// the recorder reports Done. Its probe records nothing past the trigger
// cycle, so what follows the window cannot overwrite it. Flush then writes
// a Chrome trace of the window plus a diagnostic report (trigger metadata,
// then whatever diag writes about the original run — typically
// network.WriteDiagnostic). It runs at most once per recorder and returns
// the trace path ("" when not triggered or already flushed). diag may be
// nil. A replay that panics fails the dump; one that does not trip at the
// trigger cycle has diverged from the run, which the report says and the
// error returns. Flush logs nothing: the caller logs a dump's notice
// (LogDump), in an order of its choosing.
func (r *Recorder) Flush(replay func(*Recorder), diag func(io.Writer)) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	if !r.triggered || r.flushed {
		r.mu.Unlock()
		return "", nil
	}
	r.flushed = true
	cfg, cycle, reason := r.cfg, r.cycle, r.reason
	r.mu.Unlock()

	start, end := max(cycle-cfg.Window+1, 0), cycle
	pr := probe.New(probe.Config{PeriodNs: cfg.PeriodNs, Horizon: end + 1})
	rr := &Recorder{cfg: cfg, pr: pr, end: end, flushed: true}
	if err := runReplay(replay, rr); err != nil {
		return "", fmt.Errorf("telemetry: flight dump replay: %w", err)
	}
	diverged := ""
	switch {
	case !rr.triggered:
		diverged = "the replay never tripped"
	case rr.cycle != cycle:
		diverged = fmt.Sprintf("the replay tripped at cycle %d (%s)", rr.cycle, rr.reason)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	stem := dumpStem(cfg)
	tracePath := stem + ".trace.json"
	reportPath := stem + ".report.txt"

	tf, err := os.Create(tracePath)
	if err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	werr := pr.WriteChromeTraceWindow(tf, start, end)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("telemetry: flight dump %s: %w", tracePath, werr)
	}

	rf, err := os.Create(reportPath)
	if err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	fmt.Fprintf(rf, "flight recorder dump\n")
	fmt.Fprintf(rf, "reason: %s\n", reason)
	fmt.Fprintf(rf, "trigger cycle: %d\n", cycle)
	if diverged != "" {
		fmt.Fprintf(rf, "replay diverged: %s; the trace is not the failure window\n", diverged)
	}
	fmt.Fprintf(rf, "window: [%d, %d] (%d cycles)\n", start, end, end-start+1)
	fmt.Fprintf(rf, "ring: %d events recorded, %d overwritten\n", pr.EventCount(), pr.Dropped())
	fmt.Fprintf(rf, "trace: %s\n", tracePath)
	if diag != nil {
		fmt.Fprintln(rf)
		diag(rf)
	}
	if err := rf.Close(); err != nil {
		return "", fmt.Errorf("telemetry: flight dump %s: %w", reportPath, err)
	}

	flightDumps.Add(1)
	pruneFlightDumps(cfg.Dir, cfg.Keep, stem)
	if diverged != "" {
		return tracePath, fmt.Errorf("telemetry: flight dump %s: replay diverged: %s, the run at cycle %d", tracePath, diverged, cycle)
	}
	return tracePath, nil
}

// LogDump logs the notice of the dump Flush wrote to the recorder's Logger:
// its trigger, window and files.
func (r *Recorder) LogDump() {
	if r == nil {
		return
	}
	r.mu.Lock()
	cfg, cycle, reason := r.cfg, r.cycle, r.reason
	r.mu.Unlock()
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	stem := dumpStem(cfg)
	log.Warn("flight recorder: dumped failure window",
		"reason", reason,
		"trigger_cycle", cycle,
		"window_start", max(cycle-cfg.Window+1, 0),
		"window_end", cycle,
		"trace", stem+".trace.json",
		"report", stem+".report.txt")
}

// dumpStem is the path of a dump's files less their extensions.
func dumpStem(cfg RecorderConfig) string {
	return filepath.Join(cfg.Dir, "flight-"+sanitizeLabel(cfg.Label))
}

// runReplay runs replay with rr, turning a panic into an error: the
// original run reached Flush, so a replay that panics has diverged from it.
func runReplay(replay func(*Recorder), rr *Recorder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	replay(rr)
	return nil
}

// pruneFlightDumps evicts the oldest dump stems in dir beyond keep, never
// evicting justWrote (the stem the caller just dumped). A stem is one
// flight-<label> prefix; eviction removes its trace and report together. Eviction failures are ignored — retention is best-effort
// hygiene, and the dump that triggered it already succeeded.
func pruneFlightDumps(dir string, keep int, justWrote string) {
	if keep < 0 {
		return
	}
	traces, err := filepath.Glob(filepath.Join(dir, "flight-*.trace.json"))
	if err != nil {
		return
	}
	type stemAge struct {
		stem string
		mod  int64
	}
	var stems []stemAge
	for _, tr := range traces {
		stem := strings.TrimSuffix(tr, ".trace.json")
		if stem == justWrote {
			continue
		}
		fi, err := os.Stat(tr)
		if err != nil {
			continue
		}
		stems = append(stems, stemAge{stem, fi.ModTime().UnixNano()})
	}
	excess := len(stems) + 1 - keep // +1: the stem just written
	if excess <= 0 {
		return
	}
	sort.Slice(stems, func(i, j int) bool { return stems[i].mod < stems[j].mod })
	for _, s := range stems[:min(excess, len(stems))] {
		os.Remove(s.stem + ".trace.json")
		os.Remove(s.stem + ".report.txt")
	}
}

// sanitizeLabel maps a run label to filesystem-safe characters.
func sanitizeLabel(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b)
}
