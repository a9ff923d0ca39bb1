package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDirtyGuard pins the record provenance rule: file writes from a
// dirty tree are refused without -allow-dirty, loudly warned with it, and
// stdout output or a clean tree always passes.
func TestDirtyGuard(t *testing.T) {
	if warn, err := dirtyGuard("BENCH_X.json", false, false); err != nil || warn != "" {
		t.Errorf("clean tree: warn=%q err=%v, want silence", warn, err)
	}
	if _, err := dirtyGuard("BENCH_X.json", true, false); err == nil {
		t.Error("dirty tree file write without -allow-dirty was not refused")
	}
	warn, err := dirtyGuard("BENCH_X.json", true, true)
	if err != nil {
		t.Errorf("dirty tree with -allow-dirty refused: %v", err)
	}
	if !strings.Contains(warn, "WARNING") || !strings.Contains(warn, "head_dirty") {
		t.Errorf("dirty override warning not loud enough: %q", warn)
	}
	if warn, err := dirtyGuard("-", true, false); err != nil || warn != "" {
		t.Errorf("stdout output from dirty tree: warn=%q err=%v, want silence", warn, err)
	}
}

// TestRunCompareExitCodes: runAB exits 1 with a message on a missing -base,
// a missing -workload, -n below 1, or a working directory without
// BENCHMARK.json, before it calls git (PATH holds no git, so a git call
// would fail with another message).
func TestRunCompareExitCodes(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	root, bare := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(`{"run_seconds":8,"end_to_end":[{"name":"wall_s","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, dir, base, workload string
		n                         int
	}{
		{"no base", root, "", "fig10-apps", 10},
		{"no workload", root, "HEAD", "", 10},
		{"zero pairs", root, "HEAD", "fig10-apps", 0},
		{"no BENCHMARK.json", bare, "HEAD", "fig10-apps", 10},
	} {
		if err := os.Chdir(c.dir); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if st := runAB(&stdout, &stderr, c.base, "", c.workload, c.n, "-", false); st != 1 {
			t.Errorf("%s: exit %d, want 1", c.name, st)
		}
		if !strings.Contains(stderr.String(), "noxbench: needs -base, -workload, -n >= 1") || stdout.Len() != 0 {
			t.Errorf("%s: stderr %q, stdout %q: want the usage message alone", c.name, stderr.String(), stdout.String())
		}
	}
}
