package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// aaRun is what the A/A mode keeps of one child run.
type aaRun struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	info string
}

// runAA runs every workload's end-to-end run twice, back to back, each in
// its own process (so peak_rss_mb is per workload), and prints both values
// of every metric, their relative difference and the bound. Two sets of the
// same code must agree within the bounds, and the exact facts — digests,
// counts, paper gap — must agree exactly.
func runAA(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	var sets [2]map[string]aaRun
	for i := range sets {
		sets[i] = map[string]aaRun{}
		for _, name := range names {
			args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
			if o.tiny {
				args = append(args, "-scale", "tiny")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output() // Output waits for the child to exit
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d %s: %v\n", i+1, name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r aaRun
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d %s: last line is not the result object: %v\n", i+1, name, err)
				return 1
			}
			for _, l := range lines {
				if strings.HasPrefix(string(l), "info ") {
					r.info = string(l)
				}
			}
			sets[i][name] = r
			fmt.Fprintf(stdout, "set %d %s done\n", i+1, name)
		}
	}

	bad := 0
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, name := range names {
		a, b := sets[0][name], sets[1][name]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := (vb - va) / va // positive = set 2 is worse
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := ""
			if worse > d.Bound || -worse > d.Bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", name, d.Name, va, vb, 100*(vb-va)/va, 100*d.Bound, verdict)
		}
		// The repetition count follows the clock; everything else is exact.
		if strip(a.info) != strip(b.info) || !a.Correct || !b.Correct {
			bad++
			fmt.Fprintf(stdout, "%-16s exact facts DIFFER or a run was incorrect:\n  %s\n  %s\n", name, a.info, b.info)
		} else {
			fmt.Fprintf(stdout, "%-16s exact facts agree: %s\n", name, strip(a.info))
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A: %d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A: the two sets agree within every bound and exactly on every count")
	return 0
}

// strip drops the clock-dependent repetition count from an info line.
func strip(info string) string {
	fields := strings.Fields(info)
	kept := fields[:0]
	for _, f := range fields {
		if !strings.HasPrefix(f, "reps=") {
			kept = append(kept, f)
		}
	}
	return strings.Join(kept, " ")
}
