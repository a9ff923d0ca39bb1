// Package traffic implements the synthetic workloads of §5.1: the standard
// single-flit traffic patterns of Dally & Towles plus the self-similar
// Pareto ON/OFF source (alpha = 1.4, b = 8, T_off varied to set the
// injection rate) used for bursty traffic.
package traffic

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Pattern maps a source node to a destination for each generated packet.
// Deterministic permutation patterns ignore the RNG. A pattern may return
// dst == src (e.g., fixed points of a permutation); such packets are not
// injected, which is the standard convention.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest picks the destination for a packet from src.
	Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID
}

// nodeBits returns log2(nodes) and validates power-of-two node counts for
// the bit-permutation patterns.
func nodeBits(t noc.Topology) int {
	n := t.Nodes()
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("traffic: bit-permutation patterns need power-of-two node count, got %d", n))
	}
	return bits.Len(uint(n)) - 1
}

// Uniform sends each packet to a destination chosen uniformly at random.
type Uniform struct{ Topo noc.Topology }

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	for {
		d := noc.NodeID(rng.Intn(u.Topo.Nodes()))
		if d != src {
			return d
		}
	}
}

// Transpose sends (x, y) to (y, x); it stresses one diagonal of a mesh
// under dimension-ordered routing.
type Transpose struct{ Topo noc.Topology }

// Name implements Pattern.
func (p Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (p Transpose) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	c := p.Topo.Coord(src)
	return p.Topo.ID(noc.Coord{X: c.Y % p.Topo.Width, Y: c.X % p.Topo.Height})
}

// BitComplement sends node b_{n-1}...b_0 to ~b, the longest-distance
// permutation.
type BitComplement struct{ Topo noc.Topology }

// Name implements Pattern.
func (p BitComplement) Name() string { return "bitcomp" }

// Dest implements Pattern.
func (p BitComplement) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	b := nodeBits(p.Topo)
	return noc.NodeID((^int(src)) & ((1 << b) - 1))
}

// BitReverse sends b_{n-1}...b_0 to b_0...b_{n-1}.
type BitReverse struct{ Topo noc.Topology }

// Name implements Pattern.
func (p BitReverse) Name() string { return "bitrev" }

// Dest implements Pattern.
func (p BitReverse) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	b := nodeBits(p.Topo)
	v := int(src)
	r := 0
	for i := 0; i < b; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return noc.NodeID(r)
}

// Shuffle sends b_{n-1}...b_0 to b_{n-2}...b_0 b_{n-1} (rotate left).
type Shuffle struct{ Topo noc.Topology }

// Name implements Pattern.
func (p Shuffle) Name() string { return "shuffle" }

// Dest implements Pattern.
func (p Shuffle) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	b := nodeBits(p.Topo)
	v := int(src)
	return noc.NodeID(((v << 1) | (v >> (b - 1))) & ((1 << b) - 1))
}

// Tornado sends each node roughly halfway around each dimension, the
// adversarial pattern for minimal routing.
type Tornado struct{ Topo noc.Topology }

// Name implements Pattern.
func (p Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (p Tornado) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	c := p.Topo.Coord(src)
	dx := (c.X + (p.Topo.Width+1)/2 - 1) % p.Topo.Width
	dy := (c.Y + (p.Topo.Height+1)/2 - 1) % p.Topo.Height
	return p.Topo.ID(noc.Coord{X: dx, Y: dy})
}

// Neighbor sends each node to its +1 neighbor in X (dimension-local
// traffic with minimal path variation).
type Neighbor struct{ Topo noc.Topology }

// Name implements Pattern.
func (p Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (p Neighbor) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	c := p.Topo.Coord(src)
	return p.Topo.ID(noc.Coord{X: (c.X + 1) % p.Topo.Width, Y: c.Y})
}

// Hotspot sends a fraction of traffic to one hot node and the rest
// uniformly.
type Hotspot struct {
	Topo noc.Topology
	Hot  noc.NodeID
	// Frac is the probability a packet targets the hot node (default 0.2
	// when zero).
	Frac float64
}

// Name implements Pattern.
func (p Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (p Hotspot) Dest(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	frac := p.Frac
	if frac == 0 {
		frac = 0.2
	}
	if src != p.Hot && rng.Bernoulli(frac) {
		return p.Hot
	}
	return Uniform{p.Topo}.Dest(src, rng)
}

// ErrTooFewNodes is returned, wrapped, by ByName for a topology with fewer
// than two nodes: no packet there has a destination other than its source
// (Uniform would search for one forever).
var ErrTooFewNodes = errors.New("traffic: a pattern needs at least two nodes")

// ByName returns the named pattern for the topology. Valid names: uniform,
// transpose, bitcomp, bitrev, shuffle, tornado, neighbor, hotspot.
func ByName(name string, topo noc.Topology) (Pattern, error) {
	if n := topo.Nodes(); n < 2 {
		return nil, fmt.Errorf("%w (%dx%d has %d)", ErrTooFewNodes, topo.Width, topo.Height, n)
	}
	switch name {
	case "uniform":
		return Uniform{topo}, nil
	case "transpose":
		return Transpose{topo}, nil
	case "bitcomp":
		return BitComplement{topo}, nil
	case "bitrev":
		return BitReverse{topo}, nil
	case "shuffle":
		return Shuffle{topo}, nil
	case "tornado":
		return Tornado{topo}, nil
	case "neighbor":
		return Neighbor{topo}, nil
	case "hotspot":
		return Hotspot{Topo: topo, Hot: topo.ID(noc.Coord{X: topo.Width / 2, Y: topo.Height / 2})}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// PatternNames lists the synthetic patterns evaluated in Figures 8 and 9.
var PatternNames = []string{"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor", "hotspot", "selfsimilar"}
