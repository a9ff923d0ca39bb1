// Command noxbench converts `go test -bench` output into a machine-readable
// JSON snapshot so the repo's performance trajectory is tracked in version
// control. Each benchmark records ns/op, B/op, allocs/op, and any custom
// metrics reported via b.ReportMetric (the paper's headline numbers ride
// along with the timings).
//
// Usage (see `make bench-json`, `make bench-compare` and `make ab`):
//
//	go test -run '^$' -bench . -benchtime 1x . | noxbench -out BENCH_20260806T120000Z.json
//	noxbench -in bench.txt -out -          # JSON to stdout
//	noxbench -compare old.json new.json    # per-benchmark deltas; exit 1 on regression
//	noxbench -ab -base REV [-head REV] -workload W [-n 10]  # paired A/B runs (ab.go)
//
// Compare mode matches benchmarks by name and gates on ns/op and allocs/op:
// exit status 1 when any benchmark got slower than -threshold (default 20%)
// by more than -floor nanoseconds absolute, or grew its allocation count
// past the same threshold (no floor — allocation counts are deterministic),
// 2 on bad input. The floor keeps sub-microsecond single-iteration readings
// — where a relative threshold would gate on timer jitter — from failing
// the comparison. B/op and custom metrics print informationally; a -1
// sentinel (allocations not measured) or a missing metrics block on either
// side is skipped with a note, never a failure, so snapshots from partial
// benchmark runs stay comparable.
//
// Committed BENCH_*.json snapshots are the repo's performance baseline, so
// they must be reproducible from a commit: writing a snapshot file from a
// dirty git tree is refused unless -allow-dirty is given, which stamps
// git_dirty into the JSON and prints a loud warning instead. Stdout output
// (-out -) is not a committed artifact and is always allowed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/version"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are -1 when the benchmark did not report them
	// (ReportAllocs not called), distinguishing "not measured" from zero.
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the emitted document. The git/host fields are best-effort
// provenance stamped at generation time; they are omitted when unavailable
// (no git binary, not a repository) and older snapshots without them remain
// comparable — -compare treats every one as informational.
type Snapshot struct {
	Schema       string      `json:"schema"`
	GeneratedUTC string      `json:"generated_utc"`
	GoVersion    string      `json:"go_version"`
	GoOS         string      `json:"goos"`
	GoArch       string      `json:"goarch"`
	NumCPU       int         `json:"num_cpu"`
	GitSHA       string      `json:"git_sha,omitempty"`
	GitDirty     bool        `json:"git_dirty,omitempty"`
	Host         string      `json:"host,omitempty"`
	Benchmarks   []Benchmark `json:"benchmarks"`
}

// describe renders a snapshot's provenance for the compare header: its
// timestamp plus whatever git/host metadata it carries (older snapshots
// carry none).
func (s Snapshot) describe() string {
	parts := []string{s.GeneratedUTC}
	if s.GitSHA != "" {
		sha := s.GitSHA
		if len(sha) > 12 {
			sha = sha[:12]
		}
		if s.GitDirty {
			sha += "-dirty"
		}
		parts = append(parts, sha)
	}
	if s.Host != "" {
		parts = append(parts, s.Host)
	}
	return strings.Join(parts, " ")
}

// parseLine parses one `Benchmark...` result line: name, iteration count,
// then value/unit pairs. Non-benchmark lines return ok=false.
func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Shortest valid line: name, iterations, value, unit.
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, true
}

// Parse reads `go test -bench` output and returns the benchmark results in
// input order.
func Parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(strings.TrimSpace(sc.Text())); ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noxbench:", err)
	os.Exit(1)
}

// dirtyGuard decides whether a snapshot write from a tree in the given git
// state may proceed. Committed BENCH_*.json files are the performance
// baseline future runs compare against, so a snapshot file must come from a
// clean checkout (its git_sha then identifies the exact code measured);
// -allow-dirty downgrades the refusal to a loud warning, and stdout output
// is never a committed artifact so it always passes silently.
func dirtyGuard(path string, dirty, allow bool) (warn string, err error) {
	if !dirty || path == "-" {
		return "", nil
	}
	if !allow {
		return "", fmt.Errorf("refusing to write %s from a dirty git tree — committed snapshots must be reproducible from a commit (commit first, or pass -allow-dirty to stamp git_dirty)", path)
	}
	return "WARNING: writing " + path + " from a dirty git tree; snapshot stamped git_dirty and is not a commit-reproducible baseline", nil
}

func main() {
	var (
		in         = flag.String("in", "-", "benchmark output to parse ('-' = stdin)")
		out        = flag.String("out", "", "JSON output file ('-' = stdout; default BENCH_<stamp>.json)")
		compare    = flag.Bool("compare", false, "compare two snapshots: noxbench -compare old.json new.json")
		threshold  = flag.Float64("threshold", 0.20, "ns/op and allocs/op regression threshold for -compare (0.20 = 20% worse fails)")
		floor      = flag.Float64("floor", 50_000, "absolute ns/op noise floor for -compare: slowdowns smaller than this never fail")
		allowDirty = flag.Bool("allow-dirty", false, "write a snapshot file from a dirty git tree anyway (stamped git_dirty, loud warning)")
		ab         = flag.Bool("ab", false, "paired A/B runs of the repo benchmark, -base against -head; writes a nox-ab/v1 record to -out")
		base       = flag.String("base", "", "with -ab: the base revision")
		head       = flag.String("head", "", "with -ab: the head revision (default: the working tree)")
		workload   = flag.String("workload", "", "with -ab: the benchmark workload")
		pairs      = flag.Int("n", 10, "with -ab: pairs per workload")
	)
	ver := version.Flag(flag.CommandLine)
	flag.Parse()
	version.ExitIf(*ver, "noxbench")

	if *ab {
		os.Exit(runAB(os.Stdout, os.Stderr, *base, *head, *workload, *pairs, *out, *allowDirty))
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "noxbench: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *floor))
	}

	src := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	benches, err := Parse(src)
	if err != nil {
		fatal(err)
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	now := time.Now().UTC()
	snap := Snapshot{
		Schema:       "nox-bench/v1",
		GeneratedUTC: now.Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		Benchmarks:   benches,
	}
	snap.GitSHA, snap.GitDirty = version.Git()
	if host, err := os.Hostname(); err == nil {
		snap.Host = host
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')

	path := *out
	if path == "" {
		path = "BENCH_" + now.Format("20060102T150405Z") + ".json"
	}
	if warn, err := dirtyGuard(path, snap.GitDirty, *allowDirty); err != nil {
		fatal(err)
	} else if warn != "" {
		fmt.Fprintln(os.Stderr, "noxbench:", warn)
	}
	if path == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "noxbench: wrote %d benchmarks to %s\n", len(benches), path)
}
