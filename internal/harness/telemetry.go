package harness

import "repro/internal/telemetry"

// Telemetry bundles the live-observability hooks a cmd tool threads into
// the multi-run harness entry points (RunAppWalk and its one-trace case
// RunAppAllArchs, RunFutureStudy): the shared progress sampler feeding
// /metrics and the SSE stream, and the per-run flight-recorder factory. The
// zero value disables both, so callers without a telemetry session pass
// Telemetry{}.
type Telemetry struct {
	// Progress receives per-cycle ticks and inject/deliver counts from every
	// run. Nil costs a nil check per hook.
	Progress *telemetry.Sampler
	// NewRecorder builds one flight recorder per run from a deterministic
	// label; nil (or a factory returning nil) disarms recording.
	NewRecorder func(label string) *telemetry.Recorder
}

// recorder builds a run's flight recorder, or nil when recording is off.
func (t Telemetry) recorder(label string) *telemetry.Recorder {
	if t.NewRecorder == nil {
		return nil
	}
	return t.NewRecorder(label)
}
