package routing

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/noc"
)

// remnant computes the undirected live adjacency of sys under fs and the
// BFS component id of every router, independently of the table construction
// — the reference the fault table is checked against.
func remnant(sys noc.System, fs FaultSet) (alive func(a, b noc.NodeID) bool, comp []int) {
	topo := sys.Grid
	nr := sys.Routers()
	deadEdge := make(map[[2]noc.NodeID]bool)
	for _, l := range fs.Links() {
		deadEdge[l] = true
	}
	alive = func(a, b noc.NodeID) bool {
		if a > b {
			a, b = b, a
		}
		return !deadEdge[[2]noc.NodeID{a, b}]
	}
	comp = make([]int, nr)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for root := 0; root < nr; root++ {
		if comp[root] >= 0 {
			continue
		}
		comp[root] = nc
		queue := []noc.NodeID{noc.NodeID(root)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for p := noc.North; p <= noc.West; p++ {
				w, ok := topo.Neighbor(v, p)
				if ok && alive(v, w) && comp[w] < 0 {
					comp[w] = nc
					queue = append(queue, w)
				}
			}
		}
		nc++
	}
	return alive, comp
}

// randomFaultSet draws a fault set over sys: each mesh link dead with
// probability pl.
func randomFaultSet(rng *rand.Rand, sys noc.System, pl float64) FaultSet {
	topo := sys.Grid
	var links [][2]noc.NodeID
	for r := 0; r < sys.Routers(); r++ {
		for _, p := range []noc.Port{noc.East, noc.South} {
			if nb, ok := topo.Neighbor(noc.NodeID(r), p); ok && rng.Float64() < pl {
				links = append(links, [2]noc.NodeID{noc.NodeID(r), nb})
			}
		}
	}
	return NewFaultSet(nil, links)
}

// checkFaultTable runs the full battery of structural checks on one
// (system, fault set) pair, reporting the first failure.
func checkFaultTable(t *testing.T, sys noc.System, fs FaultSet) {
	t.Helper()
	tbl := NewFaultTable(sys, fs)
	alive, comp := remnant(sys, fs)
	nr, nc := sys.Routers(), sys.Cores()
	topo := sys.Grid

	// 1. Reachability must coincide with BFS component membership, for
	// every (source core, destination core) pair.
	for s := 0; s < nc; s++ {
		sr := sys.RouterOf(noc.NodeID(s))
		for d := 0; d < nc; d++ {
			dr := sys.RouterOf(noc.NodeID(d))
			want := comp[sr] >= 0 && comp[sr] == comp[dr]
			if got := tbl.Reachable(noc.NodeID(s), noc.NodeID(d)); got != want {
				t.Fatalf("fs=%s: Reachable(core %d, core %d)=%v, BFS says %v", fs, s, d, got, want)
			}
		}
	}

	// 2. Every reachable route, followed hop by hop, must arrive at the
	// destination router over live links only, within the router count,
	// matching the table's own PathLength.
	for r := 0; r < nr; r++ {
		for d := 0; d < nc; d++ {
			p := tbl.Port(noc.NodeID(r), noc.NodeID(d))
			dr := sys.RouterOf(noc.NodeID(d))
			if comp[r] < 0 || comp[r] != comp[dr] {
				if p != Unreachable {
					t.Fatalf("fs=%s: router %d has port %v for unreachable core %d", fs, r, p, d)
				}
				continue
			}
			cur, steps := noc.NodeID(r), 1
			for cur != dr {
				hop := tbl.Port(cur, noc.NodeID(d))
				if hop == Unreachable || hop == noc.Local || hop >= noc.Local {
					t.Fatalf("fs=%s: route %d->core %d escaped at router %d via %v", fs, r, d, cur, hop)
				}
				nb, ok := topo.Neighbor(cur, hop)
				if !ok || !alive(cur, nb) {
					t.Fatalf("fs=%s: route %d->core %d crosses dead link %d-%v", fs, r, d, cur, hop)
				}
				cur = nb
				steps++
				if steps > nr+1 {
					t.Fatalf("fs=%s: route %d->core %d loops", fs, r, d)
				}
			}
			if lp := tbl.Port(dr, noc.NodeID(d)); lp != sys.LocalPort(noc.NodeID(d)) {
				t.Fatalf("fs=%s: router %d ejects core %d via %v", fs, int(dr), d, lp)
			}
			if got := tbl.PathLength(sys.CoreID(noc.NodeID(r), 0), noc.NodeID(d)); got != steps {
				t.Fatalf("fs=%s: PathLength(router %d, core %d)=%d, walked %d", fs, r, d, got, steps)
			}
		}
	}

	// 3. Deadlock freedom: the channel dependency graph over all
	// destinations must be acyclic. A channel is a directed live link
	// (a,b); routing core d's traffic from router v onward creates the
	// dependency (u,v) -> (v,w) for every predecessor u of v on d's route
	// DAG. Union over every destination, then cycle-check.
	chID := func(a, b noc.NodeID) int { return int(a)*nr + int(b) }
	deps := make(map[int]map[int]bool)
	addDep := func(from, to int) {
		m := deps[from]
		if m == nil {
			m = make(map[int]bool)
			deps[from] = m
		}
		m[to] = true
	}
	for d := 0; d < nc; d++ {
		dr := sys.RouterOf(noc.NodeID(d))
		for v := 0; v < nr; v++ {
			if comp[v] < 0 || comp[v] != comp[dr] || noc.NodeID(v) == dr {
				continue
			}
			hop := tbl.Port(noc.NodeID(v), noc.NodeID(d))
			w, _ := topo.Neighbor(noc.NodeID(v), hop)
			for p := noc.North; p <= noc.West; p++ {
				u, ok := topo.Neighbor(noc.NodeID(v), p)
				if !ok || !alive(noc.NodeID(v), u) {
					continue
				}
				// Does u route toward v for destination d?
				if uh := tbl.Port(u, noc.NodeID(d)); uh != Unreachable && uh < noc.Local {
					if un, _ := topo.Neighbor(u, uh); un == noc.NodeID(v) {
						addDep(chID(u, noc.NodeID(v)), chID(noc.NodeID(v), w))
					}
				}
			}
		}
	}
	const white, gray, black = 0, 1, 2
	color := make(map[int]int)
	var visit func(c int) bool
	visit = func(c int) bool {
		color[c] = gray
		for nxt := range deps[c] {
			switch color[nxt] {
			case gray:
				return false
			case white:
				if !visit(nxt) {
					return false
				}
			}
		}
		color[c] = black
		return true
	}
	for c := range deps {
		if color[c] == white && !visit(c) {
			t.Fatalf("fs=%s: channel dependency graph has a cycle", fs)
		}
	}
}

// TestFaultTableProperty is the randomized deadlock-freedom and
// reachability property test over mesh and concentrated-mesh systems.
func TestFaultTableProperty(t *testing.T) {
	systems := []noc.System{
		{Grid: noc.Topology{Width: 4, Height: 4}, Concentration: 1},
		{Grid: noc.Topology{Width: 8, Height: 8}, Concentration: 1},
		{Grid: noc.Topology{Width: 4, Height: 4}, Concentration: 4},
		{Grid: noc.Topology{Width: 5, Height: 3}, Concentration: 2},
	}
	for _, sys := range systems {
		sys := sys
		cfg := &quick.Config{
			MaxCount: 40,
			Values: func(args []reflect.Value, rng *rand.Rand) {
				args[0] = reflect.ValueOf(randomFaultSet(rng, sys, 0.15))
			},
		}
		f := func(fs FaultSet) bool {
			checkFaultTable(t, sys, fs)
			return !t.Failed()
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("sys=%+v: %v", sys, err)
		}
		if t.Failed() {
			return
		}
	}
}

// TestFaultTableTargeted pins known-tricky shapes: the empty set, a single
// dead link, a corner router cut off, a cut that partitions the mesh, and
// every link dead; a dead router is refused.
func TestFaultTableTargeted(t *testing.T) {
	sys := noc.System{Grid: noc.Topology{Width: 4, Height: 4}, Concentration: 1}
	cases := []FaultSet{
		NewFaultSet(nil, nil),
		NewFaultSet(nil, [][2]noc.NodeID{{5, 6}}),
		// Corner routers 0 and 15 cut off by links alone.
		NewFaultSet(nil, [][2]noc.NodeID{{0, 1}, {0, 4}}),
		NewFaultSet(nil, [][2]noc.NodeID{{11, 15}, {14, 15}}),
		// Vertical cut between columns 1 and 2: partitions the mesh.
		NewFaultSet(nil, [][2]noc.NodeID{{1, 2}, {5, 6}, {9, 10}, {13, 14}}),
		// Isolate router 5 by links alone.
		NewFaultSet(nil, [][2]noc.NodeID{{1, 5}, {4, 5}, {5, 6}, {5, 9}}),
		randomFaultSet(rand.New(rand.NewSource(1)), sys, 1), // every link
	}
	for _, fs := range cases {
		checkFaultTable(t, sys, fs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewFaultSet accepted a dead router")
		}
	}()
	NewFaultSet([]noc.NodeID{0}, nil)
}

// TestSharedFaultTable checks memoization identity: same fault set, same
// pointer; the empty set degrades to the plain XY table.
func TestSharedFaultTable(t *testing.T) {
	sys := noc.System{Grid: noc.Topology{Width: 4, Height: 4}, Concentration: 2}
	empty := SharedFaultTable(sys, NewFaultSet(nil, nil))
	if empty != SharedSystemTable(sys) {
		t.Fatal("empty fault set must share the XY table")
	}
	fs1 := NewFaultSet(nil, [][2]noc.NodeID{{2, 3}, {5, 6}})
	fs2 := NewFaultSet(nil, [][2]noc.NodeID{{3, 2}, {6, 5}, {5, 6}, {2, 3}})
	if fs1.Key() != fs2.Key() {
		t.Fatalf("canonicalization: %q vs %q", fs1.Key(), fs2.Key())
	}
	a, b := SharedFaultTable(sys, fs1), SharedFaultTable(sys, fs2)
	if a != b {
		t.Fatal("equal fault sets must share one table")
	}
	if a == SharedSystemTable(sys) {
		t.Fatal("non-empty fault set must not alias the XY table")
	}
	if a.Reachable(0, 1) != true {
		t.Fatal("cores on router 0 must stay mutually reachable")
	}
}
