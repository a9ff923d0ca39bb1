package router

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/routing"
)

// TestSlabsExact: NewSlabs sizes every pool for exactly the routers a network
// carves from it — radix 5 and 8, buffer depths 3 and 4 — so building them
// empties each pool with nothing left over (slack), and rebuilding them after
// Reset allocates nothing but the test's own router slice (no pool ran short
// and fell back to allocating).
func TestSlabsExact(t *testing.T) {
	topo := noc.Topology{Width: 3, Height: 2}
	routes, ctr := routing.NewTable(topo), &power.Counters{}
	for _, arch := range Archs {
		for _, c := range []struct{ ports, depth int }{{5, 4}, {8, 3}} {
			s := NewSlabs(arch, c.ports, c.depth, topo.Nodes())
			build := func() {
				rs := make([]Router, topo.Nodes())
				for id := range rs {
					rs[id] = New(Config{Arch: arch, Node: noc.NodeID(id), Routes: routes, BufferDepth: c.depth, Ports: c.ports, Counters: ctr, Slabs: s})
				}
			}
			build()
			for name, left := range map[string]int{
				"NoX routers": len(s.noxes.buf), "spec routers": len(s.specs.buf), "nonspec routers": len(s.nonspecs.buf),
				"NoX ports": len(s.noxPorts.buf), "input ports": len(s.ins.buf),
				"spec ports": len(s.spPorts.buf), "nonspec ports": len(s.nsPorts.buf),
				"ring slots": len(s.rings.buf), "header mirrors": len(s.hdrs.buf),
			} {
				if left != 0 {
					t.Errorf("%s, radix %d, depth %d: %d %s left over", arch, c.ports, c.depth, left, name)
				}
			}
			if a := alloctest.Allocs(3, alloctest.Same(func() { s.Reset(); build() })); a > 1 {
				t.Errorf("%s, radix %d, depth %d: rebuilding on reset slabs allocates %.0f times, want only the router slice", arch, c.ports, c.depth, a)
			}
		}
	}
}
