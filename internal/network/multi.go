package network

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/power"
)

// Multi bundles several physical networks stepped in lockstep — the
// paper's deployment for application traffic, where a second physical
// network isolates reply-class coherence traffic from requests for
// protocol deadlock freedom (Table 1: "64-bit request, 64-bit reply
// network"; §2.8 argues multiple physical channels over virtual channels).
// A packet's Class field selects its network.
type Multi struct {
	nets []*Network
}

// NewMulti builds classes identical networks from the configuration.
func NewMulti(classes int, cfg Config) *Multi {
	if classes <= 0 {
		panic("network: Multi needs at least one class")
	}
	m := &Multi{nets: make([]*Network, classes)}
	for i := range m.nets {
		m.nets[i] = New(cfg)
	}
	return m
}

// BuildMulti is the error-returning form of NewMulti for configurations
// from user input. Fault injection is rejected here: an Injector binds to
// exactly one network's channel sites, and a Multi builds the configuration
// once per class.
func BuildMulti(classes int, cfg Config) (*Multi, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("%w: Multi needs at least one class, got %d", ErrBadConfig, classes)
	}
	if cfg.Fault != nil {
		return nil, fmt.Errorf("%w: fault injection is per-network (the injector binds to one network's channel sites); inject on a single-class network", ErrBadConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewMulti(classes, cfg), nil
}

// Classes returns the number of physical networks.
func (m *Multi) Classes() int { return len(m.nets) }

// Net returns the class's network (for wiring delivery hooks).
func (m *Multi) Net(class int) *Network { return m.nets[class] }

// classNet returns the physical network a packet class selects.
func (m *Multi) classNet(class int) (*Network, error) {
	if class < 0 || class >= len(m.nets) {
		return nil, fmt.Errorf("%w: class %d of %d", ErrBadPacket, class, len(m.nets))
	}
	return m.nets[class], nil
}

// InjectAs creates packet id on the physical network its class selects, from
// that network's slab (see Network.InjectAs).
func (m *Multi) InjectAs(id uint64, src, dst noc.NodeID, length int, class int) (*noc.Packet, error) {
	n, err := m.classNet(class)
	if err != nil {
		return nil, err
	}
	return n.InjectAs(id, src, dst, length, class)
}

// Step advances every network one cycle.
func (m *Multi) Step() {
	for _, n := range m.nets {
		n.Step()
	}
}

// Outstanding returns undelivered packets across all classes.
func (m *Multi) Outstanding() int64 {
	var n int64
	for _, nw := range m.nets {
		n += nw.Outstanding()
	}
	return n
}

// Counters returns the summed event counters across classes.
func (m *Multi) Counters() power.Counters {
	var c power.Counters
	for _, nw := range m.nets {
		c.Add(*nw.Counters())
	}
	return c
}

// OnDeliver installs one delivery observer across every class.
func (m *Multi) OnDeliver(fn func(p *noc.Packet, cycle int64)) {
	for _, nw := range m.nets {
		nw.OnDeliver = fn
	}
}

// Close releases every class network's sharded worker pool.
func (m *Multi) Close() {
	for _, nw := range m.nets {
		nw.Close()
	}
}

// Idle reports that every class network is fully quiescent.
func (m *Multi) Idle() bool {
	for _, nw := range m.nets {
		if !nw.Idle() {
			return false
		}
	}
	return true
}

// FastForwardIdle advances every class network's clock by up to limit
// cycles in bulk, keeping them in lockstep; legal only while all classes
// are fully quiescent (returns 0 otherwise).
func (m *Multi) FastForwardIdle(limit int64) int64 {
	if limit <= 0 || !m.Idle() {
		return 0
	}
	for _, nw := range m.nets {
		nw.FastForwardIdle(limit)
	}
	return limit
}

// CheckInvariants runs the post-drain sweep on every class network. The
// classes usually share one Checker — its Finalize is idempotent, so the
// lost-packet scan runs exactly once over the shared oracle.
func (m *Multi) CheckInvariants() {
	for _, nw := range m.nets {
		nw.CheckInvariants()
	}
}
