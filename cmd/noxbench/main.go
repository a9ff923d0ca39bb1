// Command noxbench is the paired A/B runner behind `make ab`, the one
// referee of a wall-time claim (ab.go). It checks the base revision out into
// a git worktree, runs each tree's benchmark (benchmark/run.sh, as
// BENCHMARK.json declares it) in alternating pairs at seeds derived from the
// head revision, and reports per metric both sides' medians and quartiles,
// the pairs the head won and an exact sign-test p. The two sides of a pair
// run the same seed, so the exact simulated facts must agree: a difference
// fails the run. It writes a nox-ab/v1 record per workload,
// BENCH_<stamp>.json; without -workload it runs every workload
// BENCHMARK.json lists, one after another, into BENCH_<stamp>-<workload>.json.
//
// Usage, from the repository root (the head defaults to the working tree):
//
//	noxbench -base REV [-head REV] [-workload W] [-n 10] [-out BENCH_<stamp>.json]
//
// A committed record must be reproducible from its commits, so writing one
// from a dirty git tree is refused unless -allow-dirty is given, which stamps
// head_dirty into the JSON and prints a loud warning instead. Stdout output
// (-out -) is not a committed artifact and is always allowed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/version"
)

// dirtyGuard decides whether a record write from a tree in the given git
// state may proceed: a record file must come from a clean checkout, whose
// head_sha then names the exact code measured, unless -allow-dirty turns the
// refusal into a loud warning. Stdout output always passes silently.
func dirtyGuard(path string, dirty, allow bool) (warn string, err error) {
	if !dirty || path == "-" {
		return "", nil
	}
	if !allow {
		return "", fmt.Errorf("refusing to write %s from a dirty git tree — committed records must be reproducible from a commit (commit first, or pass -allow-dirty to stamp head_dirty)", path)
	}
	return "WARNING: writing " + path + " from a dirty git tree; record stamped head_dirty and is not commit-reproducible", nil
}

func main() {
	var (
		base       = flag.String("base", "", "the base revision (required)")
		head       = flag.String("head", "", "the head revision (default: the working tree)")
		workload   = flag.String("workload", "", "the benchmark workload (default: every workload in BENCHMARK.json)")
		pairs      = flag.Int("n", 10, "pairs of runs")
		out        = flag.String("out", "", "record file of a single -workload ('-' = stdout, for any run; default BENCH_<stamp>.json)")
		allowDirty = flag.Bool("allow-dirty", false, "write a record file from a dirty git tree anyway (stamped head_dirty, loud warning)")
	)
	ver := version.Flag(flag.CommandLine)
	flag.Parse()
	version.ExitIf(*ver, "noxbench")
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "noxbench: unexpected arguments %q\n", flag.Args())
		os.Exit(1)
	}
	os.Exit(runAB(os.Stdout, os.Stderr, *base, *head, *workload, *pairs, *out, *allowDirty))
}
