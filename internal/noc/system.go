package noc

import "fmt"

// System describes a (possibly concentrated) mesh: a grid of routers, each
// serving Concentration cores. Concentration 1 is the paper's baseline 8x8
// mesh; Concentration 4 on a 4x4 grid is the higher-radix concentrated
// mesh (CMesh, after Balfour & Dally) that the paper's future-work section
// proposes evaluating NoX on — radix-8 routers, longer channels, and the
// same fixed decode cost.
//
// Core identifiers are dense: core = router*Concentration + k. Router port
// numbering generalizes the mesh's: ports 0-3 are the four directions and
// ports 4..4+Concentration-1 are the local (core) ports, so a
// concentration-1 system's single local port is exactly the classic Local
// constant.
type System struct {
	Grid          Topology
	Concentration int
}

// MeshSystem returns the paper's baseline system: one core per router.
func MeshSystem(grid Topology) System { return System{Grid: grid, Concentration: 1} }

// Check returns an error describing a malformed system, nil when valid.
func (s System) Check() error {
	if s.Grid.Width <= 0 || s.Grid.Height <= 0 || s.Concentration <= 0 {
		return fmt.Errorf("noc: invalid system %+v", s)
	}
	if s.Cores() > int(MaxDst)+1 {
		return fmt.Errorf("noc: system %+v has more cores than a flit header addresses (%d)", s, int(MaxDst)+1)
	}
	return nil
}

// Validate panics on a malformed system; Check is the error-returning form.
func (s System) Validate() {
	if err := s.Check(); err != nil {
		panic(err.Error())
	}
}

// Routers returns the number of routers.
func (s System) Routers() int { return s.Grid.Nodes() }

// Cores returns the number of cores (network endpoints).
func (s System) Cores() int { return s.Grid.Nodes() * s.Concentration }

// Ports returns the router radix: four directions plus the local ports.
func (s System) Ports() int { return 4 + s.Concentration }

// RouterOf returns the router serving a core.
func (s System) RouterOf(core NodeID) NodeID {
	return NodeID(int(core) / s.Concentration)
}

// LocalPort returns the router port a core attaches to.
func (s System) LocalPort(core NodeID) Port {
	return Port(4 + int(core)%s.Concentration)
}

// CoreID returns the core at a router's k-th local slot.
func (s System) CoreID(routerID NodeID, k int) NodeID {
	return NodeID(int(routerID)*s.Concentration + k)
}

// CoreHops returns the router-to-router hop count between two cores'
// routers (zero when they share a router).
func (s System) CoreHops(a, b NodeID) int {
	return s.Grid.Hops(s.RouterOf(a), s.RouterOf(b))
}

// concentrationSide returns the square side of the concentration factor
// and whether it is a perfect square (needed to lay cores on a virtual
// grid for coordinate-based traffic patterns).
func (s System) concentrationSide() (int, bool) {
	for side := 1; side*side <= s.Concentration; side++ {
		if side*side == s.Concentration {
			return side, true
		}
	}
	return 0, false
}

// VirtualTopology returns a core-level grid for coordinate-based traffic
// patterns: cores of one router occupy a square sub-block. It panics when
// the concentration is not a perfect square (1, 4, 9, ...).
func (s System) VirtualTopology() Topology {
	side, ok := s.concentrationSide()
	if !ok {
		panic(fmt.Sprintf("noc: concentration %d is not a perfect square", s.Concentration))
	}
	return Topology{Width: s.Grid.Width * side, Height: s.Grid.Height * side}
}

// VirtualFromCore maps a core id to its node id on the virtual core grid.
func (s System) VirtualFromCore(core NodeID) NodeID {
	side, _ := s.concentrationSide()
	vt := s.VirtualTopology()
	r := s.RouterOf(core)
	k := int(core) % s.Concentration
	rc := s.Grid.Coord(r)
	return vt.ID(Coord{X: rc.X*side + k%side, Y: rc.Y*side + k/side})
}

// CoreFromVirtual maps a virtual-grid node id back to the core id.
func (s System) CoreFromVirtual(v NodeID) NodeID {
	side, _ := s.concentrationSide()
	vt := s.VirtualTopology()
	vc := vt.Coord(v)
	r := s.Grid.ID(Coord{X: vc.X / side, Y: vc.Y / side})
	k := (vc.Y%side)*side + vc.X%side
	return s.CoreID(r, k)
}
