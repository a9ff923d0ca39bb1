package telemetry

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/exp"
)

// Flags is the shared telemetry flag set every simulating command installs
// via AddFlags.
type Flags struct {
	// HTTP is the -http listen address; empty leaves the server off.
	HTTP string
	// Progress enables periodic structured progress records on stderr.
	Progress bool
	// LogFormat selects the slog handler: "text" or "json".
	LogFormat string
	// Flight arms the flight recorder (on by default).
	Flight bool
	// FlightWindow is the failure window W in cycles.
	FlightWindow int64
	// FlightDir overrides the dump directory.
	FlightDir string
	// FlightKeep caps retained dumps in the dump directory (oldest evicted).
	FlightKeep int
}

// AddFlags registers the telemetry flags on fs and returns the destination
// struct; call Start after fs.Parse.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.HTTP, "http", "", "serve live telemetry on this address (/metrics, /events, /debug/pprof; e.g. 127.0.0.1:9077, :0 picks a port)")
	fs.BoolVar(&f.Progress, "progress", false, "log periodic progress records to stderr")
	fs.StringVar(&f.LogFormat, "log", "text", "structured log format: text or json")
	fs.BoolVar(&f.Flight, "flight", true, "arm the flight recorder: auto-dump a Perfetto trace of the failure window on oracle/watchdog/deadlock trips")
	fs.Int64Var(&f.FlightWindow, "flight-window", DefaultFlightWindow, "flight recorder failure window W in cycles")
	fs.StringVar(&f.FlightDir, "flight-dir", "", "directory for flight-recorder dumps (default "+DefaultFlightDir()+")")
	fs.IntVar(&f.FlightKeep, "flight-keep", DefaultFlightKeep, "retain at most this many flight dumps, evicting the oldest (-1 = unlimited)")
	return f
}

// Session is one tool invocation's telemetry plane: the shared slog
// handler, the progress sampler (nil unless -progress or -http asked for
// it), the metrics registry and HTTP server (nil unless -http), and the
// flight-recorder factory.
type Session struct {
	flags   *Flags
	logger  *slog.Logger
	sampler *Sampler
	server  *Server
}

// Start builds the session: it installs the process-wide slog handler and,
// when requested, starts the telemetry server. The serving line
// "telemetry: serving on http://ADDR" is printed to stderr in plain form so
// scripts (telemetry-smoke) can scrape the bound address.
func (f *Flags) Start(tool string) (*Session, error) {
	var h slog.Handler
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	switch f.LogFormat {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("telemetry: unknown -log format %q (want text or json)", f.LogFormat)
	}
	logger := slog.New(h).With("tool", tool)
	slog.SetDefault(logger)

	s := &Session{flags: f, logger: logger}
	if f.Progress || f.HTTP != "" {
		s.sampler = NewSampler(time.Second)
		if f.Progress {
			s.sampler.EnableLog(logger)
		}
	}
	if f.HTTP != "" {
		reg := NewRegistry()
		hub := NewHub()
		s.sampler.SetHub(hub)
		s.sampler.Register(reg)
		registerRuntimeMetrics(reg)
		srv, err := StartServer(f.HTTP, reg, hub)
		if err != nil {
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", srv.Addr)
	}
	return s, nil
}

// registerRuntimeMetrics adds the process-level gauges: worker-pool
// occupancy, flight-dump count, uptime.
func registerRuntimeMetrics(reg *Registry) {
	start := time.Now()
	reg.AddGaugeFunc("nox_pool_busy_workers", "experiment-pool workers currently executing a point", func() float64 { return float64(exp.BusyWorkers()) })
	reg.AddCounterFunc("nox_flight_dumps_total", "flight-recorder failure-window dumps written", func() float64 { return float64(FlightDumps()) })
	reg.AddGaugeFunc("nox_uptime_seconds", "seconds since the telemetry session started", func() float64 { return time.Since(start).Seconds() })
}

// Logger returns the session logger.
func (s *Session) Logger() *slog.Logger {
	if s == nil {
		return slog.Default()
	}
	return s.logger
}

// Sampler returns the progress sampler; nil (a valid no-op sampler) when
// neither -progress nor -http was given.
func (s *Session) Sampler() *Sampler {
	if s == nil {
		return nil
	}
	return s.sampler
}

// Addr returns the bound telemetry address, empty when the server is off.
func (s *Session) Addr() string {
	if s == nil || s.server == nil {
		return ""
	}
	return s.server.Addr
}

// NewRecorder returns a flight recorder labeled for one run, or nil when
// -flight=false. The factory shape is what the harness threads through
// sweeps so every point gets its own recorder.
func (s *Session) NewRecorder(label string) *Recorder {
	if s == nil || !s.flags.Flight {
		return nil
	}
	return NewRecorder(RecorderConfig{
		Window: s.flags.FlightWindow,
		Dir:    s.flags.FlightDir,
		Label:  label,
		Keep:   s.flags.FlightKeep,
		Logger: s.logger,
	})
}

// Close shuts the telemetry server down.
func (s *Session) Close() {
	if s != nil {
		_ = s.server.Close()
	}
}
