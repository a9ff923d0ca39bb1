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

// DefaultFlightRing is the recorder's probe ring capacity in events. It is
// sized for the window: a saturated 8x8 mesh emits a few events per router
// per cycle only near the hotspot, so 64 Ki events comfortably covers 4 Ki
// cycles of failure-adjacent traffic while costing ~1.5 MiB once, up front.
const DefaultFlightRing = 1 << 16

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
	// RingEvents is the probe ring capacity (rounded up to a power of two by
	// internal/probe). 0 selects DefaultFlightRing.
	RingEvents int
	// Dir receives the dump files. Empty selects DefaultFlightDir().
	Dir string
	// Label distinguishes this recorder's dump files: flight-<label>.trace.json
	// and flight-<label>.report.txt. Sanitized to filesystem-safe characters.
	Label string
	// Keep caps the number of dump stems retained in Dir: after a successful
	// dump, the oldest stems beyond the cap are evicted (trace and report).
	// 0 selects DefaultFlightKeep; negative disables eviction.
	Keep int
	// PeriodNs scales trace timestamps; settable later via SetPeriodNs while
	// the probe has not yet been created.
	PeriodNs float64
	// Logger receives the dump notice; nil uses slog.Default().
	Logger *slog.Logger
}

// Recorder is the always-on flight recorder: a bounded, allocation-free
// probe ring that shadows a simulation and, on the first failure trigger
// (oracle violation, watchdog trip, drain deadlock), snapshots the last W
// cycles of events to a Perfetto/Chrome trace plus a diagnostic report.
//
// The steady-state cost is the probe's ring store per event — no
// allocations, no locks beyond the probe's own discipline — which is what
// lets the harness arm it by default. Trigger may be called from shard
// workers (the checker observer fires under concurrent stepping); it only
// latches trigger metadata. Flush must be called from the stepping
// goroutine once stepping has stopped, like every other probe read.
//
// A nil *Recorder is a valid disarmed recorder: every method no-ops.
type Recorder struct {
	cfg RecorderConfig

	trig atomic.Bool // fast path for the checker observer

	mu        sync.Mutex
	probe     *probe.Probe
	triggered bool
	cycle     int64
	reason    string
	flushed   bool
	tracePath string
}

// NewRecorder returns an armed recorder. The probe ring is created lazily on
// the first Probe call, so constructing a recorder that never attaches to a
// network costs nothing.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Window <= 0 {
		cfg.Window = DefaultFlightWindow
	}
	if cfg.RingEvents <= 0 {
		cfg.RingEvents = DefaultFlightRing
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

// SetPeriodNs sets the clock period used for trace timestamps. It must be
// called before the probe is first attached; later calls are ignored.
func (r *Recorder) SetPeriodNs(ns float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.probe == nil {
		r.cfg.PeriodNs = ns
	}
	r.mu.Unlock()
}

// Probe returns the recorder's probe, creating it on first use. Wire it as
// network.Config.Probe; a nil recorder returns a nil (disabled) probe.
func (r *Recorder) Probe() *probe.Probe {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.probe == nil {
		r.probe = probe.New(probe.Config{RingEvents: r.cfg.RingEvents, PeriodNs: r.cfg.PeriodNs})
	}
	return r.probe
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
	start = r.cycle - r.cfg.Window + 1
	if start < 0 {
		start = 0
	}
	return start, r.cycle
}

// TracePath returns the trace file written by Flush, empty before a dump.
func (r *Recorder) TracePath() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracePath
}

// Flush writes the failure-window dump if a trigger is latched: a Chrome
// trace of the last W cycles plus a diagnostic report (trigger metadata,
// then whatever diag writes — typically network.WriteDiagnostic). It runs at
// most once per recorder and returns the trace path ("" when not
// triggered). diag may be nil. Call from the stepping goroutine after
// stepping has stopped.
func (r *Recorder) Flush(diag func(io.Writer)) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.triggered || r.flushed || r.probe == nil {
		return "", nil
	}
	r.flushed = true

	start := r.cycle - r.cfg.Window + 1
	if start < 0 {
		start = 0
	}
	end := r.cycle
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	stem := filepath.Join(r.cfg.Dir, "flight-"+sanitizeLabel(r.cfg.Label))
	tracePath := stem + ".trace.json"
	reportPath := stem + ".report.txt"

	tf, err := os.Create(tracePath)
	if err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	werr := r.probe.WriteChromeTraceWindow(tf, start, end)
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
	fmt.Fprintf(rf, "reason: %s\n", r.reason)
	fmt.Fprintf(rf, "trigger cycle: %d\n", r.cycle)
	fmt.Fprintf(rf, "window: [%d, %d] (%d cycles)\n", start, end, end-start+1)
	fmt.Fprintf(rf, "ring: %d events recorded, %d overwritten\n", r.probe.EventCount(), r.probe.Dropped())
	fmt.Fprintf(rf, "trace: %s\n", tracePath)
	if diag != nil {
		fmt.Fprintln(rf)
		diag(rf)
	}
	if err := rf.Close(); err != nil {
		return "", fmt.Errorf("telemetry: flight dump %s: %w", reportPath, err)
	}

	r.tracePath = tracePath
	flightDumps.Add(1)
	pruneFlightDumps(r.cfg.Dir, r.cfg.Keep, stem)
	log := r.cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	log.Warn("flight recorder: dumped failure window",
		"reason", r.reason,
		"trigger_cycle", r.cycle,
		"window_start", start,
		"window_end", end,
		"trace", tracePath,
		"report", reportPath)
	return tracePath, nil
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
