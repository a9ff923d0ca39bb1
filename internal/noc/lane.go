package noc

// LinkLane is a typed dispatch lane over a network's channels for the
// kernel's serial step (it satisfies internal/sim.Lane structurally; this
// package does not import sim). Links have no combinational work, so the
// compute walks vanish entirely — the single biggest win of lane dispatch,
// since channels outnumber routers about fourfold on a mesh. The links must
// be passed in their kernel registration order.
type LinkLane []*Link

// Len returns the number of channels the lane covers.
func (l LinkLane) Len() int { return len(l) }

// ComputeAll is a no-op: Link.Compute does nothing.
func (l LinkLane) ComputeAll(cycle int64) {}

// ComputeActive is a no-op: Link.Compute does nothing.
func (l LinkLane) ComputeActive(cycle int64, active []uint32) {}

// CommitAll commits every channel (reference mode).
func (l LinkLane) CommitAll(cycle int64) {
	for _, ln := range l {
		ln.Commit(cycle)
	}
}

// CommitActive commits active channels, clears the flags of those that went
// quiet, and returns how many it put to sleep.
func (l LinkLane) CommitActive(cycle int64, active []uint32) int {
	quiets := 0
	for i, ln := range l {
		if active[i] == 0 {
			continue
		}
		ln.Commit(cycle)
		if ln.Quiet() {
			active[i] = 0
			quiets++
		}
	}
	return quiets
}

// ShardLinkLane is the link lane of one shard of the sharded step: the
// channels the shard owns in ascending registration order, and for each the
// index of its activity flag. The channels a shard owns are not contiguous
// (a link belongs to its sink's shard, so a tile also owns the links
// entering it from its neighbours' rows), hence the index slice; the walk is
// handed the kernel's whole flag array (see sim.BindShardLaneAt).
type ShardLinkLane struct {
	Links []*Link
	At    []int32
}

// Len returns the number of channels the lane covers.
func (l *ShardLinkLane) Len() int { return len(l.Links) }

// ComputeAll is a no-op: Link.Compute does nothing.
func (l *ShardLinkLane) ComputeAll(cycle int64) {}

// ComputeActive is a no-op, and must stay one that reads no flag: other
// shards wake links during the compute phase.
func (l *ShardLinkLane) ComputeActive(cycle int64, flags []uint32) {}

// CommitAll commits every channel (reference mode).
func (l *ShardLinkLane) CommitAll(cycle int64) { LinkLane(l.Links).CommitAll(cycle) }

// CommitActive commits active channels, clears the flags of those that went
// quiet, and returns how many it put to sleep.
func (l *ShardLinkLane) CommitActive(cycle int64, flags []uint32) int {
	quiets := 0
	for i, ln := range l.Links {
		at := l.At[i]
		if flags[at] == 0 {
			continue
		}
		ln.Commit(cycle)
		if ln.Quiet() {
			flags[at] = 0
			quiets++
		}
	}
	return quiets
}
