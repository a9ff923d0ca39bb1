// Up*/down* routing over the live remnant of a damaged mesh.
//
// When permanent faults remove links, XY routing is no longer usable: the
// minimal X-then-Y path may cross a dead link, and ad-hoc detours reintroduce
// the cyclic channel dependencies XY's turn discipline ruled out. Up*/down*
// (Autonet; Schroeder et al. 1991) restores a provable deadlock-freedom
// argument on an arbitrary connected remnant: orient every live link "up"
// toward the root of a BFS spanning tree (ties broken by node id), and
// constrain every route to zero or more up-channels followed by zero or more
// down-channels. Up-channel dependencies strictly decrease the
// (level, id) key and down-channel dependencies strictly increase it, and a
// legal path never takes an up-channel after a down-channel, so the channel
// dependency graph is acyclic — no routed configuration can deadlock.
//
// The construction here picks, for every (router, destination) pair, a
// single next hop: go down whenever a pure-down path to the destination
// exists (even a non-minimal one), otherwise go up along a shortest
// up-prefix toward the set of routers that can. Because a suffix of an
// up*down* path is itself up*down*, per-hop table lookups compose into legal
// paths without any per-packet state.
package routing

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/noc"
)

// Unreachable is the route-table entry for a (router, destination) pair with
// no live path: the destination sits in a different component of the damaged
// mesh. Callers must consult Table.Reachable before injecting rather than
// route into a black hole.
const Unreachable noc.Port = -1

// FaultSet is a canonicalized set of permanently dead links. A dead link
// kills both directions of the channel pair (the physical failure model: a
// severed link neither carries flits nor returns credits), which keeps
// reachability symmetric — it coincides with undirected BFS component
// membership. Construct with NewFaultSet; the zero value is the empty set.
type FaultSet struct {
	links [][2]noc.NodeID
	key   string
}

// NewFaultSet canonicalizes dead inter-router links: they are normalized to
// (low, high) endpoint order, sorted and deduplicated. The input is copied,
// never retained. The routers parameter stays only for benchmark/, the one
// caller that passes the argument (nil): routers do not fail in this model,
// so a non-empty list panics like any other malformed fault set.
func NewFaultSet(routers []noc.NodeID, links [][2]noc.NodeID) FaultSet {
	if len(routers) > 0 {
		panic(fmt.Sprintf("routing: dead routers %v: only links can fail", routers))
	}
	ls := make([][2]noc.NodeID, 0, len(links))
	for _, l := range links {
		if l[0] > l[1] {
			l[0], l[1] = l[1], l[0]
		}
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool {
		if ls[i][0] != ls[j][0] {
			return ls[i][0] < ls[j][0]
		}
		return ls[i][1] < ls[j][1]
	})
	ls = dedupLinks(ls)
	fs := FaultSet{links: ls}
	fs.key = fs.buildKey()
	return fs
}

func dedupLinks(s [][2]noc.NodeID) [][2]noc.NodeID {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func (fs FaultSet) buildKey() string {
	var b strings.Builder
	b.WriteByte('L')
	for _, l := range fs.links {
		fmt.Fprintf(&b, ":%d-%d", int(l[0]), int(l[1]))
	}
	return b.String()
}

// Empty reports whether the set contains no faults.
func (fs FaultSet) Empty() bool { return len(fs.links) == 0 }

// Key returns a canonical string identity for memoization: equal sets have
// equal keys.
func (fs FaultSet) Key() string {
	if fs.key == "" && !fs.Empty() {
		// Hand-rolled (non-constructor) values still get a stable key.
		return fs.buildKey()
	}
	return fs.key
}

// Links returns the sorted, normalized dead-link list (read-only).
func (fs FaultSet) Links() [][2]noc.NodeID { return fs.links }

// String renders the set for reports: "2 dead (L2-3 L7-11)".
func (fs FaultSet) String() string {
	if fs.Empty() {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d dead (", len(fs.links))
	for i, l := range fs.links {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "L%d-%d", int(l[0]), int(l[1]))
	}
	b.WriteByte(')')
	return b.String()
}

// NewFaultTable builds an up*/down* route table for the remnant of sys after
// removing the links in fs. Entries whose destination is unreachable from
// the source router hold Unreachable / path length -1; use Table.Reachable to
// query. Panics on a fault set naming links that are not mesh-adjacent router
// pairs.
func NewFaultTable(sys noc.System, fs FaultSet) *Table {
	sys.Validate()
	topo := sys.Grid
	nr, nc := sys.Routers(), sys.Cores()

	deadEdge := make(map[[2]noc.NodeID]bool, len(fs.links))
	for _, l := range fs.links {
		if int(l[0]) < 0 || int(l[1]) >= nr || topo.Hops(l[0], l[1]) != 1 {
			panic(fmt.Sprintf("routing: dead link %d-%d is not an adjacent router pair", int(l[0]), int(l[1])))
		}
		deadEdge[l] = true
	}
	edgeAlive := func(a, b noc.NodeID) bool {
		if a > b {
			a, b = b, a
		}
		return !deadEdge[[2]noc.NodeID{a, b}]
	}

	// BFS levels per connected component; the root of each component is its
	// lowest-id router. The (level, id) key totally orders each
	// component: an edge's up direction points at the smaller key.
	level := make([]int32, nr)
	comp := make([]int32, nr)
	for i := range level {
		level[i], comp[i] = -1, -1
	}
	queue := make([]noc.NodeID, 0, nr)
	ncomp := int32(0)
	for root := 0; root < nr; root++ {
		if level[root] >= 0 {
			continue
		}
		level[root], comp[root] = 0, ncomp
		queue = append(queue[:0], noc.NodeID(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for p := noc.North; p <= noc.West; p++ {
				w, ok := topo.Neighbor(v, p)
				if !ok || !edgeAlive(v, w) || level[w] >= 0 {
					continue
				}
				level[w], comp[w] = level[v]+1, ncomp
				queue = append(queue, w)
			}
		}
		ncomp++
	}
	// less reports key(a) < key(b): a is strictly "upper" than b.
	less := func(a, b noc.NodeID) bool {
		if level[a] != level[b] {
			return level[a] < level[b]
		}
		return a < b
	}

	// Routers in increasing key order, for the up-cost DP (every
	// up-neighbor of a vertex precedes it in this order).
	byKey := make([]noc.NodeID, nr)
	for r := range byKey {
		byKey[r] = noc.NodeID(r)
	}
	sort.Slice(byKey, func(i, j int) bool { return less(byKey[i], byKey[j]) })

	tbl := &Table{sys: sys, ports: make([]noc.Port, nr*nc), hops: make([]int32, nr*nc)}
	for i := range tbl.ports {
		tbl.ports[i], tbl.hops[i] = Unreachable, -1
	}

	downDist := make([]int32, nr) // min pure-down steps to the destination, -1 if none
	upCost := make([]int32, nr)   // min up steps to reach the pure-down set, -1 if none
	next := make([]noc.Port, nr)
	visits := make([]int32, nr) // routers visited from here to destination, inclusive

	for d := 0; d < nr; d++ {
		dst := noc.NodeID(d)

		// downDist: backward BFS from d. An edge u->w with key(u) < key(w)
		// is a down-channel; if w can continue down to d, u can start there.
		for i := range downDist {
			downDist[i] = -1
		}
		downDist[d] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			for p := noc.North; p <= noc.West; p++ {
				u, ok := topo.Neighbor(w, p)
				if !ok || !edgeAlive(w, u) || downDist[u] >= 0 || !less(u, w) {
					continue
				}
				downDist[u] = downDist[w] + 1
				queue = append(queue, u)
			}
		}

		// upCost: processed in increasing key order so every up-neighbor is
		// final. Complete within the component: climbing BFS-tree parent
		// edges reaches the root, and the tree path root->d is pure down.
		for i := range upCost {
			upCost[i] = -1
		}
		for _, v := range byKey {
			if comp[v] != comp[dst] {
				continue
			}
			if downDist[v] >= 0 {
				upCost[v] = 0
				continue
			}
			best := int32(-1)
			for p := noc.North; p <= noc.West; p++ {
				u, ok := topo.Neighbor(v, p)
				if !ok || !edgeAlive(v, u) || !less(u, v) || upCost[u] < 0 {
					continue
				}
				if best < 0 || upCost[u]+1 < best {
					best = upCost[u] + 1
				}
			}
			upCost[v] = best
		}

		// Next hop: prefer the down phase the moment any pure-down path
		// exists; otherwise climb toward the down set. Fixed N,E,S,W tie
		// order keeps the table a pure function of (sys, fs).
		for i := range next {
			next[i], visits[i] = Unreachable, -1
		}
		visits[d] = 1
		for _, v := range byKey {
			if v == dst || comp[v] != comp[dst] {
				continue
			}
			for p := noc.North; p <= noc.West; p++ {
				w, ok := topo.Neighbor(v, p)
				if !ok || !edgeAlive(v, w) {
					continue
				}
				if downDist[v] > 0 {
					if less(v, w) && downDist[w] == downDist[v]-1 {
						next[v] = p
						break
					}
				} else if less(w, v) && upCost[w] >= 0 && upCost[w] == upCost[v]-1 {
					next[v] = p
					break
				}
			}
			if next[v] == Unreachable {
				panic("routing: up*/down* found no next hop inside a connected component")
			}
		}
		var chain func(v noc.NodeID) int32
		chain = func(v noc.NodeID) int32 {
			if visits[v] >= 0 {
				return visits[v]
			}
			w, _ := topo.Neighbor(v, next[v])
			visits[v] = chain(w) + 1
			return visits[v]
		}
		for _, v := range byKey {
			if comp[v] == comp[dst] {
				chain(v)
			}
		}

		// Fill the rows for every core concentrated on router d.
		for k := 0; k < sys.Concentration; k++ {
			c := int(sys.CoreID(dst, k))
			for r := 0; r < nr; r++ {
				if comp[r] != comp[dst] {
					continue
				}
				if r == d {
					tbl.ports[r*nc+c] = sys.LocalPort(noc.NodeID(c))
					tbl.hops[r*nc+c] = 1
					continue
				}
				tbl.ports[r*nc+c] = next[r]
				tbl.hops[r*nc+c] = visits[r]
			}
		}
	}
	return tbl
}

type faultTableKey struct {
	sys noc.System
	key string
}

// faultCache memoizes fault tables by (system, canonical fault-set key):
// a degradation sweep re-runs the same fault set across four architectures
// and three execution modes, and a reconfiguration epoch must not pay the
// O(routers^2) rebuild when replaying a snapshot.
var faultCache sync.Map // faultTableKey -> *Table

// SharedFaultTable returns the memoized up*/down* table for sys under fs,
// building it on first use. The empty fault set returns the plain XY table —
// the zero-overhead degenerate case. Safe for concurrent callers; returned
// tables are read-only.
func SharedFaultTable(sys noc.System, fs FaultSet) *Table {
	if fs.Empty() {
		return SharedSystemTable(sys)
	}
	k := faultTableKey{sys: sys, key: fs.Key()}
	if t, ok := faultCache.Load(k); ok {
		return t.(*Table)
	}
	t, _ := faultCache.LoadOrStore(k, NewFaultTable(sys, fs))
	return t.(*Table)
}
