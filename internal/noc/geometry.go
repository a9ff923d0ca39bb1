// Package noc defines the basic vocabulary of the on-chip network: node
// coordinates, router ports, packets, flits, and the wire-level flit image
// used by the NoX XOR-coded switch.
package noc

import "fmt"

// NodeID identifies a tile in row-major order: id = y*width + x.
type NodeID int

// Coord is a tile position on the mesh.
type Coord struct {
	X, Y int
}

// Port identifies one of a router's five ports. The four cardinal ports
// connect to neighboring routers; Local connects to the tile's network
// interface. One byte wide because the route table holds a Port per (router,
// destination) pair and every lookahead route is a load from it: 1 MB at
// 32x32 where int made it 8 MB and a sure L2 miss. Radix tops out at 32.
type Port int8

// Router ports in fixed order. The order is load-bearing: bitmask positions
// in the NoX masking logic and round-robin arbiter priorities index by it.
const (
	North Port = iota
	East
	South
	West
	Local
	NumPorts // number of ports on a mesh router
)

// String returns the conventional one-letter name of the port.
func (p Port) String() string {
	switch p {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// Opposite returns the port on the neighboring router that a flit leaving
// through p arrives on. Opposite(Local) panics: the local port pairs with
// the network interface, not another router.
func (p Port) Opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		panic("noc: Local port has no opposite")
	}
}

// Topology describes a 2-D mesh of Width x Height tiles.
type Topology struct {
	Width, Height int
}

// Nodes returns the number of tiles.
func (t Topology) Nodes() int { return t.Width * t.Height }

// Coord converts a node id to its mesh coordinate.
func (t Topology) Coord(id NodeID) Coord {
	return Coord{X: int(id) % t.Width, Y: int(id) / t.Width}
}

// ID converts a coordinate to its node id.
func (t Topology) ID(c Coord) NodeID {
	return NodeID(c.Y*t.Width + c.X)
}

// Contains reports whether c lies on the mesh.
func (t Topology) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.Width && c.Y >= 0 && c.Y < t.Height
}

// Neighbor returns the node adjacent to id through port p and whether such a
// neighbor exists (mesh edges have no neighbor in some directions).
func (t Topology) Neighbor(id NodeID, p Port) (NodeID, bool) {
	c := t.Coord(id)
	switch p {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return 0, false
	}
	if !t.Contains(c) {
		return 0, false
	}
	return t.ID(c), true
}

// Hops returns the Manhattan distance between two nodes, which is the number
// of links a minimally routed packet traverses between their routers.
func (t Topology) Hops(a, b NodeID) int {
	ca, cb := t.Coord(a), t.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
