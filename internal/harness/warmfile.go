package harness

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
)

// Warm-image files. The container carries noxsweep's warm cache only:
// noxsweep -checkpoint/-restore persists per-architecture warm images
// (network snapshot plus harness run state at the warmup boundary) across
// invocations. The container is a codec stream with its own magic/version
// so a warm image is never mistaken for a bare network snapshot (or vice
// versa).

const (
	ckptMagic   uint64 = 0x4e4f58434b505431 // "NOXCKPT1"
	ckptVersion uint64 = 1
)

// encodeWarmFile renders the checkpoint container.
func encodeWarmFile(w *warmImage) []byte {
	e := codec.NewEncoder()
	e.U64(ckptMagic)
	e.U64(ckptVersion)
	e.String(string(w.net))
	e.String(string(w.run))
	return e.Bytes()
}

// decodeWarmFile parses a checkpoint container, validating the embedded
// network image's header so corrupt files fail here rather than deep inside
// a member restore.
func decodeWarmFile(data []byte) (*warmImage, error) {
	d := codec.NewDecoder(data)
	if m := d.U64(); d.Err() == nil && m != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic %#x", codec.ErrCorrupt, m)
	}
	if v := d.U64(); d.Err() == nil && v != ckptVersion {
		return nil, fmt.Errorf("%w: checkpoint version %d, this build reads %d", codec.ErrVersion, v, ckptVersion)
	}
	netImg := d.String()
	runImg := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after checkpoint", codec.ErrCorrupt, d.Remaining())
	}
	if _, err := snapshot.Inspect([]byte(netImg)); err != nil {
		return nil, err
	}
	return &warmImage{net: []byte(netImg), run: []byte(runImg)}, nil
}

// saveWarmFile writes the checkpoint atomically (temp file plus rename), so
// a run killed mid-write never leaves a truncated checkpoint behind.
func saveWarmFile(path string, w *warmImage) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, encodeWarmFile(w), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadWarmFile reads and parses a checkpoint file.
func loadWarmFile(path string) (*warmImage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeWarmFile(data)
}

// warmFileName names one architecture's cached warm image. Every parameter
// the warm state depends on is pinned in the name — pattern, architecture,
// topology, buffer depth, packet length, seed, warm-up window and rate — so
// a sweep with different parameters misses the cache instead of restoring
// the wrong state. Execution mode (shards) is deliberately
// absent: results are bit-identical across modes, so images are shared.
func warmFileName(cfg SyntheticConfig) string {
	return fmt.Sprintf("warm-%s-%s-%dx%d-b%d-f%d-s%x-w%d-r%g.noxwarm",
		cfg.Pattern, cfg.Arch, cfg.Topo.Width, cfg.Topo.Height,
		cfg.BufferDepth, cfg.PacketFlits, cfg.Seed, cfg.WarmupCycles, cfg.WarmRateMBps)
}

// warmFor produces base's architecture's warm image, consulting the file
// cache: with WarmLoadDir set, a cached image is restored instead of
// re-running the warm phase (a missing file falls back to warming; a
// corrupt one is a loud error). With WarmSaveDir set, a freshly computed
// image is persisted for the next invocation.
func warmFor(base SyntheticConfig) (*warmImage, error) {
	name := ""
	if base.WarmLoadDir != "" || base.WarmSaveDir != "" {
		filled := base
		filled.fill()
		name = warmFileName(filled)
	}
	if base.WarmLoadDir != "" {
		w, err := loadWarmFile(filepath.Join(base.WarmLoadDir, name))
		if err == nil {
			return w, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("harness: warm cache %s: %w", name, err)
		}
	}
	w, err := warmSynthetic(base)
	if err != nil {
		return nil, err
	}
	if base.WarmSaveDir != "" {
		if err := saveWarmFile(filepath.Join(base.WarmSaveDir, name), w); err != nil {
			return nil, fmt.Errorf("harness: warm cache: %w", err)
		}
	}
	return w, nil
}
