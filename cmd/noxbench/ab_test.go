package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// TestSignTest pins the exact two-sided sign test at the splits a ten-pair
// claim turns on: 10/10 and 9/10 (either way round), an even split, and no
// decided pair at all.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		won, n int
		want   float64
	}{
		{10, 10, 0.001953125}, {0, 10, 0.001953125}, {9, 10, 0.021484375}, {1, 10, 0.021484375},
		{8, 10, 0.109375}, {5, 10, 1}, {0, 0, 1}, {1, 1, 1},
	} {
		if got := signTestP(c.won, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.won, c.n, got, c.want)
		}
	}
}

// fakeRunner stands in for two benchmark checkouts: every run reports the
// same exact facts for a seed, except the head's at mismatchPair, whose
// digest differs. The head is faster by a tenth.
type fakeRunner struct {
	calls        []string
	mismatchPair int
}

func (f *fakeRunner) run(dir, workload string, seed uint64) (abRun, error) {
	f.calls = append(f.calls, dir)
	digest := fmt.Sprintf("%x", seed)
	wall := 2.0 + float64(len(f.calls))/100
	if dir == "head" {
		wall *= 0.9
		if (len(f.calls)-1)/2 == f.mismatchPair {
			digest += "0"
		}
	}
	return abRun{
		Metrics: map[string]float64{"wall_s": wall, "alloc_mb": 100},
		Facts:   map[string]string{"digest": digest, "cells": "32", "link_flits": "7", "paper_gap_pp": "1.5", "reps": "4"},
	}, nil
}

// TestABPairs: pairs alternate which side runs first, both sides of a pair
// share a seed, seeds differ between pairs, and the summary counts the
// head's wins by each metric's direction (ties decide nothing). A pair
// whose sides disagree on an exact fact stops the run with that fact named.
func TestABPairs(t *testing.T) {
	f := &fakeRunner{mismatchPair: -1}
	pairs, err := abPairs(f.run, "base", "head", "0123abcd", "fig10-apps", 4, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.calls, " "); got != "base head head base base head head base" {
		t.Errorf("run order %q, want the first side flipping each pair", got)
	}
	seeds := map[uint64]bool{}
	for _, p := range pairs {
		seeds[p.Seed] = true
		if p.Base.Facts["digest"] != fmt.Sprintf("%x", p.Seed) {
			t.Errorf("pair at seed %d ran another seed", p.Seed)
		}
	}
	if len(seeds) != 4 || pairs[1].First != "head" {
		t.Errorf("seeds %v, second pair first side %q", seeds, pairs[1].First)
	}
	sum := summarize(pairs, contract{EndToEnd: []metric{{"wall_s", "lower"}, {"alloc_mb", "lower"}}})
	if w := sum[0]; w.Won != 4 || w.Decided != 4 || w.P != 0.125 || !(w.Head[1] < w.Base[1]) {
		t.Errorf("wall_s summary %+v, want 4/4 head wins", w)
	}
	if a := sum[1]; a.Decided != 0 || a.P != 1 {
		t.Errorf("alloc_mb summary %+v, want every pair tied", a)
	}

	f = &fakeRunner{mismatchPair: 2}
	pairs, err = abPairs(f.run, "base", "head", "0123abcd", "fig10-apps", 4, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exact fact digest differs") || len(pairs) != 2 {
		t.Errorf("digest mismatch at pair 3: err %v after %d pairs", err, len(pairs))
	}
}

// TestParseBenchOutput reads the host line, the info line's facts and the
// closing result object, and rejects a run that is not correct.
func TestParseBenchOutput(t *testing.T) {
	out := `host: nproc=2 GOMAXPROCS=2 cpu="x" go=go1.24.0 git=a977cdc32bc9 load1=0.50
repetitions: wall_s=[2.0 2.1] alloc_mb=[10.0 10.0] setup_s=[0.1]
workload fig10-apps seed 5: end-to-end metrics (timings are medians of n=2 repetitions)
info cells=32 digest=3f2a link_flits=123 paper_gap_pp=1.25 reps=2
{"correct":true,"attempted":64,"failed":0,"metrics":{"wall_s":{"value":2.05,"unit":"s"}}}
`
	r, err := parseBenchOutput([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if r.host != `nproc=2 GOMAXPROCS=2 cpu="x" go=go1.24.0 git=a977cdc32bc9 load1=0.50` ||
		r.Facts["digest"] != "3f2a" || r.Facts["paper_gap_pp"] != "1.25" || r.Metrics["wall_s"] != 2.05 {
		t.Errorf("misparsed: %+v", r)
	}
	bad := strings.Replace(out, `"correct":true,"attempted":64,"failed":0`, `"correct":false,"attempted":64,"failed":1`, 1)
	if _, err := parseBenchOutput([]byte(bad)); err == nil {
		t.Error("a run with a failed cell parsed as a result")
	}
	if _, err := parseBenchOutput([]byte("host: x\n")); err == nil {
		t.Error("a run without a result object parsed as a result")
	}
}
