package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/version"
)

// exactFacts are the info-line facts that two sides of a pair must share.
var exactFacts = []string{"digest", "cells", "link_flits", "paper_gap_pp"}

// abRun is one benchmark run's result: its end-to-end metrics and the exact
// facts of its info line.
type abRun struct {
	Metrics map[string]float64 `json:"metrics"`
	Facts   map[string]string  `json:"facts"`
	host    string             // the benchmark's host line
}

// abPair is one base run and one head run at one seed.
type abPair struct {
	Seed  uint64 `json:"seed"`
	First string `json:"first"` // "base" or "head": the side that ran first
	Base  abRun  `json:"base"`
	Head  abRun  `json:"head"`
}

// abMetric summarizes one metric over a workload's pairs.
type abMetric struct {
	Metric  string     `json:"metric"`
	Better  string     `json:"better"`
	Base    [3]float64 `json:"base_q1_median_q3"`
	Head    [3]float64 `json:"head_q1_median_q3"`
	Won     int        `json:"head_won"`
	Decided int        `json:"decided"` // pairs not tied
	P       float64    `json:"sign_test_p"`
	Bound   float64    `json:"-"` // the contract's bound, for the verdict
}

// abRecord is the BENCH_<stamp>.json an A/B run writes (schema nox-ab/v1).
type abRecord struct {
	Schema       string     `json:"schema"`
	GeneratedUTC string     `json:"generated_utc"`
	BaseSHA      string     `json:"base_sha"`
	HeadSHA      string     `json:"head_sha"`
	HeadDirty    bool       `json:"head_dirty,omitempty"`
	Host         string     `json:"host,omitempty"`
	HostLine     string     `json:"host_line"` // the head benchmark's, from its first run
	Seconds      float64    `json:"run_seconds"`
	Workload     string     `json:"workload"`
	Pairs        []abPair   `json:"pairs"`
	Summary      []abMetric `json:"summary"`
	Unmeasured   []string   `json:"unmeasured,omitempty"` // contract metrics left out of Summary
}

// contract is the part of BENCHMARK.json the runner reads.
type contract struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the worst relative change of the median allowed
}

// abRunner runs the benchmark of the tree at dir once, for one workload at
// one seed. Tests substitute a fake.
type abRunner func(dir, workload string, seed uint64) (abRun, error)

// benchRunner runs the benchmark of the checkout at dir through its own
// benchmark/run.sh, which builds it first (outside the run's timings).
func benchRunner(seconds float64) abRunner {
	return func(dir, workload string, seed uint64) (abRun, error) {
		cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
			"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		r, perr := parseBenchOutput(out)
		if err = errors.Join(err, perr); err != nil {
			return r, fmt.Errorf("%s: benchmark/run.sh --seed %d: %w\n%s", dir, seed, err, out)
		}
		return r, nil
	}
}

// parseBenchOutput reads a benchmark run's host line, info line and closing
// result object. A run that is not correct is an error.
func parseBenchOutput(out []byte) (abRun, error) {
	r := abRun{Metrics: map[string]float64{}, Facts: map[string]string{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "host: "); ok {
			r.host = h
		}
		if info, ok := strings.CutPrefix(line, "info "); ok {
			for _, kv := range strings.Fields(info) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					r.Facts[k] = v
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("no result object: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return r, fmt.Errorf("run not correct (%d failed cells)", res.Failed)
	}
	for k, v := range res.Metrics {
		r.Metrics[k] = v.Value
	}
	return r, nil
}

// abSeed derives pair i's seed from the head revision: nobody tunes on it.
func abSeed(headSHA, workload string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", headSHA, workload, i)
	return h.Sum64()>>1 | 1 // 0 would select the benchmark's default seed
}

// abPairs runs n pairs of one workload, the first side flipping each pair,
// and stops at the first pair whose sides disagree on an exact fact.
func abPairs(run abRunner, baseDir, headDir, headSHA, workload string, n int, log io.Writer) ([]abPair, error) {
	var pairs []abPair
	for i := range n {
		p := abPair{Seed: abSeed(headSHA, workload, i), First: []string{"base", "head"}[i%2]}
		order := []*abRun{&p.Base, &p.Head}
		dirs := []string{baseDir, headDir}
		if i%2 == 1 {
			slices.Reverse(order)
			slices.Reverse(dirs)
		}
		for j, dst := range order {
			r, err := run(dirs[j], workload, p.Seed)
			if err != nil {
				return pairs, err
			}
			*dst = r
		}
		for _, k := range exactFacts {
			if b, h := p.Base.Facts[k], p.Head.Facts[k]; b != h || b == "" {
				return pairs, fmt.Errorf("%s pair %d (seed %d): exact fact %s differs: base %q, head %q", workload, i+1, p.Seed, k, b, h)
			}
		}
		fmt.Fprintf(log, "noxbench: %s pair %d/%d (seed %d, %s first): wall_s base %.3f head %.3f\n",
			workload, i+1, n, p.Seed, p.First, p.Base.Metrics["wall_s"], p.Head.Metrics["wall_s"])
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// quartiles returns the first quartile, median and third quartile of vs,
// interpolating linearly between order statistics.
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}

// signTestP is the exact two-sided sign test: the chance that a coin splits
// n tosses at least as unevenly as won against n-won.
func signTestP(won, n int) float64 {
	if n == 0 {
		return 1
	}
	k := max(won, n-won)
	c, tail := 1.0, 0.0 // c = C(n, i)
	for i := 0; i <= n; i++ {
		if i >= k {
			tail += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Exp2(float64(n)))
}

// summarize folds a workload's pairs into one line per contract metric. A
// metric that some run did not report (a base older than the metric) is left
// out, with a note naming the side that lacks it, rather than read as 0.
func summarize(pairs []abPair, c contract) (out []abMetric, unmeasured []string) {
	for _, m := range c.EndToEnd {
		if side := unmeasuredOn(pairs, m.Name); side != "" {
			unmeasured = append(unmeasured, m.Name+": not measured on "+side)
			continue
		}
		s := abMetric{Metric: m.Name, Better: m.Better, Bound: m.Bound}
		var base, head []float64
		for _, p := range pairs {
			b, h := p.Base.Metrics[m.Name], p.Head.Metrics[m.Name]
			base, head = append(base, b), append(head, h)
			if b != h {
				s.Decided++
				if (h < b) == (m.Better == "lower") {
					s.Won++
				}
			}
		}
		if len(pairs) > 0 {
			s.Base, s.Head = quartiles(base), quartiles(head)
		}
		s.P = signTestP(s.Won, s.Decided)
		out = append(out, s)
	}
	return out, unmeasured
}

// unmeasuredOn names the sides ("base", "head" or "base and head") on which
// some run did not report the metric, or returns "" when every run did.
func unmeasuredOn(pairs []abPair, name string) string {
	var sides []string
	for i, side := range []string{"base", "head"} {
		for _, p := range pairs {
			if _, ok := [2]abRun{p.Base, p.Head}[i].Metrics[name]; !ok {
				sides = append(sides, side)
				break
			}
		}
	}
	return strings.Join(sides, " and ")
}

// pctDelta returns the relative change from oldV to newV as a percentage.
func pctDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// verdict reads one metric's summary against its bound:
//
//   - "gain": the head won at least 9 of every 10 decided pairs, and its
//     median is better than the base's by more than the base's
//     interquartile range;
//   - "worse": the head's median is worse than the base's by more than the
//     bound, relative to the base's median;
//   - "unresolved": the base's own interquartile range, relative to its
//     median, is wider than the bound, so a move within it cannot be told
//     from noise;
//   - "flat": everything else.
func (m abMetric) verdict() string {
	gain := m.Head[1] - m.Base[1] // > 0: the head is better
	if m.Better == "lower" {
		gain = -gain
	}
	iqr, scale := m.Base[2]-m.Base[0], math.Abs(m.Base[1])
	switch {
	case m.Decided > 0 && 10*m.Won >= 9*m.Decided && gain > iqr:
		return "gain"
	case -gain > m.Bound*scale:
		return "worse"
	case iqr > m.Bound*scale:
		return "unresolved"
	}
	return "flat"
}

func printSummary(w io.Writer, rec abRecord) {
	fmt.Fprintf(w, "%s: %d pairs, base %.12s, head %.12s\n  %-22s %-30s %-30s %8s %7s %8s  %s\n", rec.Workload, len(rec.Pairs),
		rec.BaseSHA, rec.HeadSHA, "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "won", "p", "verdict")
	for _, m := range rec.Summary {
		fmt.Fprintf(w, "  %-22s %-30s %-30s %+7.1f%% %3d/%-3d %8.3g  %s\n", m.Metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", m.Base[1], m.Base[0], m.Base[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", m.Head[1], m.Head[0], m.Head[2]),
			pctDelta(m.Base[1], m.Head[1]), m.Won, m.Decided, m.P, m.verdict())
	}
	for _, note := range rec.Unmeasured {
		fmt.Fprintf(w, "  %s, left out\n", note)
	}
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return strings.TrimSpace(string(out)), nil
}

// runAB runs n pairs of the workload, or of every workload the contract
// lists when workload is "", base against head (the working tree when "").
// Each workload gets its own summary and record: BENCH_<stamp>.json, or
// BENCH_<stamp>-<workload>.json when the run covers every workload. It
// returns the exit status.
func runAB(stdout, stderr io.Writer, base, head, workload string, n int, out string, allowDirty bool) int {
	fail := func(err error) int { fmt.Fprintln(stderr, "noxbench:", err); return 1 }
	var c contract
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &c)
	}
	workloads := []string{workload}
	if workload == "" {
		workloads = nil
		for _, w := range c.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	if err != nil || n < 1 || base == "" || len(workloads) == 0 || len(workloads) > 1 && out != "" && out != "-" {
		return fail(fmt.Errorf("needs -base, -n >= 1, a -workload (or workloads in BENCHMARK.json, with -out '-' or the default) and the repository root as working directory (BENCHMARK.json: %v)", err))
	}
	tmp, err := os.MkdirTemp("", "noxab-")
	if err != nil {
		return fail(err)
	}
	// checkout resolves rev and checks it out in a worktree under tmp, which
	// the prune unregisters once tmp is gone.
	defer func() { os.RemoveAll(tmp); git("worktree", "prune") }()
	checkout := func(name, rev string) (sha, dir string, err error) {
		if sha, err = git("rev-parse", "--verify", rev+"^{commit}"); err == nil {
			dir = filepath.Join(tmp, name)
			_, err = git("worktree", "add", "--detach", dir, sha)
		}
		return sha, dir, err
	}
	tmpl := abRecord{Schema: "nox-ab/v1", Seconds: c.RunSeconds}
	baseDir, headDir := "", ""
	if tmpl.BaseSHA, baseDir, err = checkout("base", base); err != nil {
		return fail(err)
	}
	if head == "" { // the working tree
		tmpl.HeadSHA, tmpl.HeadDirty = version.Git()
		headDir, err = git("rev-parse", "--show-toplevel")
	} else {
		tmpl.HeadSHA, headDir, err = checkout("head", head)
	}
	if err != nil {
		return fail(err)
	}
	if warn, err := dirtyGuard(cmp.Or(out, "BENCH_<stamp>.json"), tmpl.HeadDirty, allowDirty); err != nil {
		return fail(err)
	} else if warn != "" {
		fmt.Fprintln(stderr, "noxbench:", warn)
	}
	if host, err := os.Hostname(); err == nil {
		tmpl.Host = host
	}
	if err := abWorkloads(stdout, stderr, benchRunner(c.RunSeconds), c, tmpl, baseDir, headDir, workloads, n, out); err != nil {
		return fail(err)
	}
	return 0
}

// abWorkloads runs n pairs of each workload in turn, stopping at the first
// that fails, and writes each one's summary to stdout and its record to out:
// "-" is stdout, and "" names the record BENCH_<stamp>.json, or
// BENCH_<stamp>-<workload>.json when there are several workloads, stamped
// with the time its pairs began.
func abWorkloads(stdout, stderr io.Writer, run abRunner, c contract, tmpl abRecord, baseDir, headDir string, workloads []string, n int, out string) error {
	for _, w := range workloads {
		name := out
		if name == "" && len(workloads) > 1 {
			name = "BENCH_<stamp>-" + w + ".json"
		}
		if err := abWorkload(stdout, stderr, run, c, tmpl, baseDir, headDir, w, n, name); err != nil {
			return err
		}
	}
	return nil
}

// abWorkload runs n pairs of one workload and writes its summary to stdout
// and its record to out ("" is BENCH_<stamp>.json; see abWorkloads).
func abWorkload(stdout, stderr io.Writer, run abRunner, c contract, rec abRecord, baseDir, headDir, workload string, n int, out string) error {
	now := time.Now().UTC()
	rec.Workload, rec.GeneratedUTC = workload, now.Format(time.RFC3339)
	out = strings.ReplaceAll(cmp.Or(out, "BENCH_<stamp>.json"), "<stamp>", now.Format("20060102T150405Z"))
	var err error
	if rec.Pairs, err = abPairs(run, baseDir, headDir, rec.HeadSHA, workload, n, stderr); err != nil {
		return err
	}
	rec.HostLine = rec.Pairs[0].Head.host
	rec.Summary, rec.Unmeasured = summarize(rec.Pairs, c)
	printSummary(stdout, rec)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		if data = append(data, '\n'); out == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(out, data, 0o644)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "noxbench: %s: base %s, head %s (dirty %v): wrote %s\n", workload, rec.BaseSHA, rec.HeadSHA, rec.HeadDirty, out)
	return nil
}
