// Package routing implements dimension-ordered (XY) routing with lookahead
// route computation. Table 1 fixes the routing algorithm to DOR; §3.1.1
// notes all routers use lookahead route computation (NRC, Galles' SGI
// Spider scheme) so route computation never appears on the critical path —
// in the simulator a flit's output port at a router is computed the moment
// the flit arrives there.
//
// Routing generalizes to concentrated systems: a route is computed from
// the current router to the destination core's router, ejecting through
// the core's local port on arrival.
package routing

import (
	"sync"

	"repro/internal/noc"
)

// XY returns the output port a packet at cur takes toward dst under
// dimension-ordered routing: correct X first, then Y, then eject via Local.
// XY routing on a mesh is deadlock-free because the X-then-Y discipline
// admits no cyclic channel dependencies.
func XY(t noc.Topology, cur, dst noc.NodeID) noc.Port {
	cc, dc := t.Coord(cur), t.Coord(dst)
	switch {
	case dc.X > cc.X:
		return noc.East
	case dc.X < cc.X:
		return noc.West
	case dc.Y > cc.Y:
		return noc.South
	case dc.Y < cc.Y:
		return noc.North
	default:
		return noc.Local
	}
}

// Table is a precomputed route table: Port(currentRouter, destinationCore)
// in O(1), shared by all routers of a network.
type Table struct {
	sys   noc.System
	ports []noc.Port // [router*cores + core]
	// hops caches path lengths for fault tables, where routes are no longer
	// minimal and a pair may be unreachable (-1). nil on XY tables: there
	// every destination is reachable and PathLength is the Manhattan walk.
	hops []int32 // [router*cores + core], routers visited inclusive
}

// NewTable precomputes XY routes for a plain (concentration-1) mesh, where
// router and core identifiers coincide.
func NewTable(t noc.Topology) *Table {
	return NewSystemTable(noc.MeshSystem(t))
}

// NewSystemTable precomputes XY routes for every (router, destination
// core) pair of a possibly concentrated system.
func NewSystemTable(sys noc.System) *Table {
	sys.Validate()
	routers, cores := sys.Routers(), sys.Cores()
	tbl := &Table{sys: sys, ports: make([]noc.Port, routers*cores)}
	for r := 0; r < routers; r++ {
		for c := 0; c < cores; c++ {
			dstRouter := sys.RouterOf(noc.NodeID(c))
			var p noc.Port
			if noc.NodeID(r) == dstRouter {
				p = sys.LocalPort(noc.NodeID(c))
			} else {
				p = XY(sys.Grid, noc.NodeID(r), dstRouter)
			}
			tbl.ports[r*cores+c] = p
		}
	}
	return tbl
}

// tableCache memoizes route tables by system. A Table is immutable after
// construction, so every network of the same system — an experiment sweep
// builds hundreds — can share one instance instead of recomputing the
// O(routers x cores) XY walk, which dominated network construction.
var tableCache sync.Map // noc.System -> *Table

// SharedSystemTable returns the memoized route table for sys, building it on
// first use. Safe for concurrent callers; the returned table must be treated
// as read-only (as all Tables are).
func SharedSystemTable(sys noc.System) *Table {
	if t, ok := tableCache.Load(sys); ok {
		return t.(*Table)
	}
	t, _ := tableCache.LoadOrStore(sys, NewSystemTable(sys))
	return t.(*Table)
}

// Topology returns the router grid the table was built for.
func (t *Table) Topology() noc.Topology { return t.sys.Grid }

// Port returns the XY output port at router cur for a packet headed to
// destination core dst.
func (t *Table) Port(cur, dst noc.NodeID) noc.Port {
	return t.ports[int(cur)*t.sys.Cores()+int(dst)]
}

// Row returns router cur's precomputed route row, indexed by destination
// core: Row(cur)[dst] == Port(cur, dst). The row aliases the table —
// read-only, O(1), no per-lookup multiply — and is what each router's input
// ports hold for lookahead route computation on the hot path.
func (t *Table) Row(cur noc.NodeID) []noc.Port {
	c := t.sys.Cores()
	return t.ports[int(cur)*c : (int(cur)+1)*c : (int(cur)+1)*c]
}

// PathLength returns the number of routers a packet visits from core src
// to core dst inclusive (router hops + 1). On a fault table the walk follows
// the (possibly non-minimal) up*/down* route; -1 if dst is unreachable.
func (t *Table) PathLength(src, dst noc.NodeID) int {
	if t.hops == nil {
		return t.sys.CoreHops(src, dst) + 1
	}
	return int(t.hops[int(t.sys.RouterOf(src))*t.sys.Cores()+int(dst)])
}

// Reachable reports whether a packet injected at core src can reach core dst
// under this table. Always true on XY tables; on a fault table it is false
// exactly when the two cores' routers sit in different components of the
// damaged mesh.
func (t *Table) Reachable(src, dst noc.NodeID) bool {
	if t.hops == nil {
		return true
	}
	return t.hops[int(t.sys.RouterOf(src))*t.sys.Cores()+int(dst)] >= 0
}
