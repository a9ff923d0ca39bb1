package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/probe"
	"repro/internal/version"
)

// CLI is the flag preamble the cmd tools share. NewCLI registers -version
// and the flag groups a tool asks for on flag.CommandLine; the tool then
// registers its own flags (Seed, Shards and Parallel for the common ones)
// and calls Start, which parses the command line and brings the session,
// the profiler and the worker pool up.
type CLI struct {
	tool     string
	ver      *bool
	tel      *liveFlags
	prof     *probe.ProfileFlags
	seed     *uint64
	shards   *int
	parallel *int
}

// FlagGroup selects the flag groups NewCLI registers beyond -version.
type FlagGroup uint8

const (
	// LiveFlags is the telemetry plane: -http, -progress, -log and the
	// -flight* flight-recorder flags.
	LiveFlags FlagGroup = 1 << iota
	// ProfileFlags is -cpuprofile and -memprofile.
	ProfileFlags
)

// NewCLI registers -version and the given flag groups for tool.
func NewCLI(tool string, groups FlagGroup) *CLI {
	c := &CLI{tool: tool, ver: version.Flag(flag.CommandLine)}
	if groups&LiveFlags != 0 {
		c.tel = addFlags(flag.CommandLine)
	}
	if groups&ProfileFlags != 0 {
		c.prof = probe.AddProfileFlags(flag.CommandLine)
	}
	return c
}

// Seed registers -seed with the tool's default; Start rejects 0, which the
// run configurations read as unset.
func (c *CLI) Seed(def uint64) *uint64 {
	c.seed = flag.Uint64("seed", def, "simulation seed, nonzero (every output is a pure function of it)")
	return c.seed
}

// Shards registers -shards with the tool's default; Start rejects a negative
// value.
func (c *CLI) Shards(def int) *int {
	c.shards = flag.Int("shards", def, "intra-simulation worker shards per network (0 = auto, 1 = serial; output is bit-identical at every setting)")
	return c.shards
}

// Parallel registers -parallel; Start turns it into the worker pool.
func (c *CLI) Parallel() {
	c.parallel = flag.Int("parallel", 0, "worker count for independent simulation points (0 = all CPUs, 1 = serial; output is identical)")
}

// Start parses the command line, answers -version, and starts the
// telemetry session, the profiler and the worker pool of the groups the
// tool registered (a nil session and pool otherwise, both valid). A bad
// flag value exits with status 1. Defer the returned stop.
func (c *CLI) Start() (sess *Session, pool *exp.Pool, stop func()) {
	flag.Parse()
	version.ExitIf(*c.ver, c.tool)
	var err error
	if c.tel != nil {
		if sess, err = c.tel.start(c.tool); err != nil {
			c.Fail(err)
		}
	}
	stopProf := func() {}
	if c.prof != nil {
		if stopProf, err = c.prof.Start(); err != nil {
			c.Fail(err)
		}
	}
	if c.seed != nil && *c.seed == 0 {
		c.Fail(errors.New("-seed must be nonzero (0 would select the library's default seed)"))
	}
	if c.shards != nil && *c.shards < 0 {
		c.Fail(fmt.Errorf("-shards must be >= 0 (got %d); use 0 for auto, 1 for serial", *c.shards))
	}
	if c.parallel != nil {
		if *c.parallel < 0 {
			c.Fail(fmt.Errorf("-parallel must be >= 0 (got %d); use 0 for all CPUs, 1 for serial", *c.parallel))
		}
		pool = exp.NewPool(*c.parallel)
	}
	return sess, pool, func() {
		stopProf()
		sess.Close()
	}
}

// Fail prints err after the tool's name and exits with status 1.
func (c *CLI) Fail(err error) {
	fmt.Fprintln(os.Stderr, c.tool+":", err)
	os.Exit(1)
}

// liveFlags holds the telemetry flag values (LiveFlags).
type liveFlags struct {
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

// addFlags registers the telemetry flags on fs and returns the destination
// struct.
func addFlags(fs *flag.FlagSet) *liveFlags {
	f := &liveFlags{}
	fs.StringVar(&f.HTTP, "http", "", "serve live telemetry on this address (/metrics, /healthz, /debug/vars, /debug/pprof; e.g. 127.0.0.1:9077, :0 picks a port)")
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
	flags   *liveFlags
	logger  *slog.Logger
	sampler *Sampler
	server  *Server
}

// start builds the session: it installs the process-wide slog handler and,
// when requested, starts the telemetry server. The serving line
// "telemetry: serving on http://ADDR" is printed to stderr in plain form so
// scripts (telemetry-smoke) can scrape the bound address.
func (f *liveFlags) start(tool string) (*Session, error) {
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
		s.sampler.Register(reg)
		registerRuntimeMetrics(reg)
		srv, err := StartServer(f.HTTP, reg)
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

// Sampler returns the progress sampler; nil (a valid no-op sampler) when
// neither -progress nor -http was given.
func (s *Session) Sampler() *Sampler {
	if s == nil {
		return nil
	}
	return s.sampler
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
