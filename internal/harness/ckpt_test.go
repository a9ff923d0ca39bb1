package harness

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/router"
)

// TestWarmFileCache pins the on-disk warm-image cache: a warm-start sweep
// that persists its images must render the same CSV as the sweep that
// loads them back (on the look-ahead, from images saved eager), the cached files must round-trip through the container
// codec, and a corrupted cache entry must fail the sweep loudly instead of
// silently recomputing (or worse, restoring garbage).
func TestWarmFileCache(t *testing.T) {
	base := fastCfg("uniform", 0)
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 600, 1200, 8000
	base.WarmStart = true
	base.WarmRateMBps = 600
	rates := []float64{600, 1400}
	dir := t.TempDir()

	// The writer runs eager, as every warm phase did before warm-start
	// sweeps ran the look-ahead, so the loader's look-ahead members restore
	// an eager-saved image: caches written by older builds still load.
	save := base
	save.WarmSaveDir = dir
	save.Eager = true
	ptsSave, err := SweepSynthetic(save, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := SweepCSV("uniform", ptsSave)

	files, err := filepath.Glob(filepath.Join(dir, "warm-*.noxwarm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(router.Archs) {
		t.Fatalf("cache holds %d images, want one per architecture (%d)", len(files), len(router.Archs))
	}
	for _, f := range files {
		if _, err := loadWarmFile(f); err != nil {
			t.Errorf("cached image %s does not decode: %v", filepath.Base(f), err)
		}
	}

	load := base
	load.WarmLoadDir = dir
	ptsLoad, err := SweepSynthetic(load, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := SweepCSV("uniform", ptsLoad); got != want {
		t.Errorf("cache-loaded sweep CSV diverged from the sweep that wrote the cache\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A missing cache is a cold start; a corrupt cache is an error.
	load.WarmLoadDir = filepath.Join(dir, "no-such-dir")
	if _, err := SweepSynthetic(load, rates, nil); err != nil {
		t.Errorf("missing cache dir must fall back to computing, got %v", err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not a warm image"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	load.WarmLoadDir = dir
	if _, err := SweepSynthetic(load, rates, nil); err == nil {
		t.Error("corrupted cache restored silently, want a loud error")
	}
}
