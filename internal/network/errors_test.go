package network

import (
	"errors"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/router"
)

// TestBuildRejectsBadConfig: every user-reachable misconfiguration comes
// back as an ErrBadConfig-wrapped error, never a panic.
func TestBuildRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative width", Config{Topo: noc.Topology{Width: -1, Height: 4}}},
		{"half topology", Config{Topo: noc.Topology{Width: 4}}},
		{"negative concentration", Config{Topo: noc.Topology{Width: 2, Height: 2}, Concentration: -1}},
		{"radix overflow", Config{Topo: noc.Topology{Width: 2, Height: 2}, Concentration: 64}},
		{"unknown arch", Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.Arch(99)}},
		{"negative buffers", Config{Topo: noc.Topology{Width: 2, Height: 2}, BufferDepth: -3}},
		{"negative sink", Config{Topo: noc.Topology{Width: 2, Height: 2}, SinkDepth: -1}},
		{"one-slot sink", Config{Topo: noc.Topology{Width: 2, Height: 2}, SinkDepth: 1}},
		{"negative shards", Config{Topo: noc.Topology{Width: 2, Height: 2}, Shards: -2}},
		{"probe on two shards", Config{Topo: noc.Topology{Width: 2, Height: 2}, Shards: 2,
			Probe: probe.New(probe.Config{RingEvents: 16})}},
		{"oracle on two shards", Config{Topo: noc.Topology{Width: 2, Height: 2}, Shards: 2, Oracle: true}},
		{"fault without check", Config{Topo: noc.Topology{Width: 2, Height: 2},
			Fault: fault.NewInjector(fault.Spec{Seed: 1})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build(tc.cfg)
			if err == nil {
				n.Close()
				t.Fatal("invalid configuration accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error does not wrap ErrBadConfig: %v", err)
			}
		})
	}
}

// TestInjectCheckedRejectsBadPackets: malformed endpoints come back as
// ErrBadPacket; a valid request injects and delivers normally.
func TestInjectCheckedRejectsBadPackets(t *testing.T) {
	n, err := Build(Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.NoX})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, tc := range []struct {
		name     string
		src, dst noc.NodeID
		length   int
	}{
		{"negative src", -1, 2, 1},
		{"src out of range", 4, 2, 1},
		{"dst out of range", 0, 4, 1},
		{"self addressed", 2, 2, 1},
		{"zero length", 0, 1, 0},
		{"negative length", 0, 1, -4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := n.InjectChecked(tc.src, tc.dst, tc.length, 0)
			if err == nil {
				t.Fatalf("accepted bad packet %+v", p)
			}
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("error does not wrap ErrBadPacket: %v", err)
			}
		})
	}
	if _, err := n.InjectChecked(0, 3, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.DrainChecked(500, 0); err != nil {
		t.Fatal(err)
	}
	if n.Delivered() != 1 {
		t.Error("checked-injected packet never delivered")
	}
}

// TestBuildMultiRejections: class count and the per-network fault binding
// are validated up front.
func TestBuildMultiRejections(t *testing.T) {
	base := Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: router.NoX}
	if _, err := BuildMulti(0, base); !errors.Is(err, ErrBadConfig) {
		t.Errorf("classes=0 error: %v", err)
	}
	faulty := base
	faulty.Check = check.New(check.All())
	faulty.Fault = fault.NewInjector(fault.Spec{Seed: 1})
	if _, err := BuildMulti(2, faulty); !errors.Is(err, ErrBadConfig) {
		t.Errorf("multi with fault injector error: %v", err)
	}
	m, err := BuildMulti(2, base)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Classes() != 2 {
		t.Errorf("classes = %d, want 2", m.Classes())
	}
}
