package harness

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
	"repro/internal/stats"
)

// App-replay checkpoints. An application-trace replay is a multi-class
// network plus a replay cursor: the next trace event, the packet-id
// allocator, the running latency sums, and the delivery collector. The
// checkpoint container is the same one the synthetic paths use (warmImage:
// a network image plus run state), with the multi-network image in the
// network slot, so noxapp checkpoints share the file machinery and the
// atomic-overwrite behavior of noxsim's.

// appCursor is the replay state that lives outside the networks.
type appCursor struct {
	idx          int
	pktID        uint64
	latencySum   float64
	latencySqSum float64
	delivered    int64
}

// saveAppCheckpoint persists a resumable replay checkpoint. Only call
// between steps.
func saveAppCheckpoint(path string, multi *network.Multi, col *stats.Collector, cur appCursor) error {
	img, err := snapshot.EncodeMulti(multi)
	if err != nil {
		return err
	}
	e := codec.NewEncoder()
	e.Int(cur.idx)
	e.U64(cur.pktID)
	e.F64(cur.latencySum)
	e.F64(cur.latencySqSum)
	e.I64(cur.delivered)
	col.SaveState(e)
	return saveWarmFile(path, &warmImage{net: img, run: e.Bytes()})
}

// restoreAppCheckpoint restores a loaded replay checkpoint into the freshly
// built multi-network and collector, returning the replay cursor. maxIdx
// bounds the event cursor (the trace length).
func restoreAppCheckpoint(w *warmImage, multi *network.Multi, col *stats.Collector, maxIdx int) (appCursor, error) {
	if err := snapshot.DecodeMultiInto(w.net, multi); err != nil {
		return appCursor{}, err
	}
	d := codec.NewDecoder(w.run)
	var cur appCursor
	cur.idx = d.Len(maxIdx)
	cur.pktID = d.U64()
	cur.latencySum = d.F64()
	cur.latencySqSum = d.F64()
	cur.delivered = d.I64()
	if err := d.Err(); err != nil {
		return cur, err
	}
	if cur.delivered < 0 {
		return cur, fmt.Errorf("%w: %d packets delivered", codec.ErrCorrupt, cur.delivered)
	}
	if err := col.RestoreState(d); err != nil {
		return cur, err
	}
	if d.Remaining() != 0 {
		return cur, fmt.Errorf("%w: %d trailing bytes after replay state", codec.ErrCorrupt, d.Remaining())
	}
	return cur, nil
}
