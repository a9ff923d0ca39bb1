// Package telemetry is the runtime observability plane: a live metrics
// registry served in Prometheus text format, a structured-logging session
// and the flag preamble shared by the cmd tools, and an always-on
// flight recorder that snapshots the probe-event window leading up to an
// oracle, watchdog, or deadlock trip as a Perfetto/Chrome trace.
//
// The package sits between the simulation layers and the tools: internal
// packages stay free of HTTP and logging concerns (they expose counters and
// hooks), while every simulating command wires one Session in front of the
// harness. All hot-path types are nil-receiver-safe so a disabled telemetry
// plane costs only a nil check.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/power"
)

// Registry is an ordered set of metrics rendered in the Prometheus text
// exposition format (version 0.0.4). Metrics are read at scrape time via
// callbacks, so registering is cheap and the simulation never blocks on a
// scrape.
type Registry struct {
	mu      sync.Mutex
	entries []entry
}

type entry struct {
	name string
	help string
	typ  string // "counter" or "gauge"; empty for raw blocks
	fn   func() float64
	raw  func(io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddCounterFunc registers a monotonically increasing metric read from fn at
// scrape time.
func (r *Registry) AddCounterFunc(name, help string, fn func() float64) {
	r.add(entry{name: name, help: help, typ: "counter", fn: fn})
}

// AddGaugeFunc registers a point-in-time metric read from fn at scrape time.
func (r *Registry) AddGaugeFunc(name, help string, fn func() float64) {
	r.add(entry{name: name, help: help, typ: "gauge", fn: fn})
}

// AddRaw registers a callback that writes complete exposition lines itself —
// the escape hatch for labeled metric families (per-architecture event
// counters) that a scalar callback cannot express.
func (r *Registry) AddRaw(fn func(io.Writer) error) {
	r.add(entry{raw: fn})
}

func (r *Registry) add(e entry) {
	r.mu.Lock()
	r.entries = append(r.entries, e)
	r.mu.Unlock()
}

// WritePrometheus renders every registered metric to w in registration
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	for _, e := range entries {
		if e.raw != nil {
			if err := e.raw(w); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			e.name, e.help, e.name, e.typ, e.name, formatValue(e.fn())); err != nil {
			return err
		}
	}
	return nil
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ArchEventWriter returns an AddRaw callback rendering per-architecture
// power.Counters as one labeled counter family:
//
//	nox_arch_events_total{arch="NoX",event="xbar"} 123
//
// snapshot must return a copy of the current arch -> counters map.
func ArchEventWriter(snapshot func() map[string]power.Counters) func(io.Writer) error {
	return func(w io.Writer) error {
		m := snapshot()
		if len(m) == 0 {
			return nil
		}
		archs := make([]string, 0, len(m))
		for a := range m {
			archs = append(archs, a)
		}
		sort.Strings(archs)
		if _, err := fmt.Fprintf(w, "# HELP nox_arch_events_total datapath events per architecture over completed runs\n# TYPE nox_arch_events_total counter\n"); err != nil {
			return err
		}
		for _, a := range archs {
			c := m[a]
			for _, ev := range []struct {
				name string
				v    int64
			}{
				{"buf_write", c.BufWrite}, {"buf_read", c.BufRead}, {"xbar", c.Xbar},
				{"link_flit", c.LinkFlit}, {"link_invalid", c.LinkInvalid}, {"arb", c.Arb},
				{"decode", c.Decode}, {"reg_write", c.RegWrite}, {"collisions", c.Collisions},
				{"encoded_flits", c.EncodedFlits}, {"aborts", c.Aborts},
				{"wasted_cycles", c.WastedCycles}, {"output_active", c.OutputActive},
			} {
				if _, err := fmt.Fprintf(w, "nox_arch_events_total{arch=%q,event=%q} %d\n", a, ev.name, ev.v); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// ParseExposition validates data against the Prometheus text exposition
// format and returns the number of sample lines. It accepts what the
// registry (and any well-formed exporter) emits: comment/HELP/TYPE lines,
// blank lines, and `name{labels} value [timestamp]` samples. A malformed
// line fails with its 1-based line number.
func ParseExposition(data []byte) (samples int, err error) {
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line); err != nil {
				return samples, fmt.Errorf("line %d: %w", i+1, err)
			}
			continue
		}
		if err := parseSample(line); err != nil {
			return samples, fmt.Errorf("line %d: %w", i+1, err)
		}
		samples++
	}
	return samples, nil
}

func parseComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment
	}
	if len(fields) < 3 || !validMetricName(fields[2]) {
		return fmt.Errorf("malformed %s comment %q", fields[1], line)
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

func parseSample(line string) error {
	rest := line
	// Metric name.
	nameEnd := strings.IndexAny(rest, "{ \t")
	if nameEnd < 0 {
		return fmt.Errorf("sample %q has no value", line)
	}
	if !validMetricName(rest[:nameEnd]) {
		return fmt.Errorf("invalid metric name %q", rest[:nameEnd])
	}
	rest = rest[nameEnd:]
	// Optional label set.
	if strings.HasPrefix(rest, "{") {
		end, err := labelSetEnd(rest)
		if err != nil {
			return fmt.Errorf("sample %q: %w", line, err)
		}
		rest = rest[end:]
	}
	// Value and optional timestamp.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("sample %q: bad value %q", line, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return nil
}

// labelSetEnd returns the index just past the closing '}' of a label set
// starting at s[0] == '{', honoring quoted (and escaped) label values.
func labelSetEnd(s string) (int, error) {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i + 1, nil
			}
		}
	}
	return 0, fmt.Errorf("unterminated label set")
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
