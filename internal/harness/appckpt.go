package harness

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
)

// App-replay checkpoints. An application-trace replay is a multi-class
// network plus a replay cursor: the next trace event, the packet-id
// allocator, the running latency sums, and the delivery collector. The
// checkpoint container is the same one the synthetic paths use (warmImage:
// a network image plus run state), with the multi-network image in the
// network slot, so noxapp checkpoints share the file machinery and the
// atomic-overwrite behavior of noxsim's. Only lockstep replays checkpoint.

// saveAppCheckpoint persists a resumable replay checkpoint. Only call
// between steps. The packet-id allocator and delivered count follow from
// the cursor and collector, and are kept for the format.
func saveAppCheckpoint(path string, multi *network.Multi, s *appStream) error {
	img, err := snapshot.EncodeMulti(multi)
	if err != nil {
		return err
	}
	e := codec.NewEncoder()
	e.Int(s.idx)
	e.U64(uint64(s.idx))
	e.F64(float64(s.sum))
	e.F64(float64(s.sqSum))
	e.I64(s.col.Delivered())
	s.col.SaveState(e)
	return saveWarmFile(path, &warmImage{net: img, run: e.Bytes()})
}

// restoreAppCheckpoint restores a loaded replay checkpoint into the freshly
// built multi-network and the lockstep stream's cursor and collector. maxIdx
// bounds the event cursor (the trace length).
func restoreAppCheckpoint(w *warmImage, multi *network.Multi, s *appStream, maxIdx int) error {
	if err := snapshot.DecodeMultiInto(w.net, multi); err != nil {
		return err
	}
	d := codec.NewDecoder(w.run)
	idx, pktID := d.Len(maxIdx), d.U64()
	sum, sqSum, delivered := d.F64(), d.F64(), d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.col.RestoreState(d); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after replay state", codec.ErrCorrupt, d.Remaining())
	}
	if pktID != uint64(idx) || delivered != s.col.Delivered() ||
		!(sum >= 0 && sum < math.MaxInt64 && sqSum >= 0 && sqSum < math.MaxInt64) {
		return fmt.Errorf("%w: replay cursor (event %d, packet %d, %d delivered, latency sums %g/%g) disagrees with its record",
			codec.ErrCorrupt, idx, pktID, delivered, sum, sqSum)
	}
	s.idx, s.sum, s.sqSum, s.cycle = idx, int64(sum), int64(sqSum), multi.Cycle()
	return nil
}
