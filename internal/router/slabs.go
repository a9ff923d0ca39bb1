package router

import (
	"repro/internal/buffer"
	"repro/internal/noc"
)

// pool is a bump allocator over one exactly sized block: take carves zeroed
// subslices off it in order, so the backing storage for a whole network's
// routers costs one heap allocation per element type instead of several per
// router. Carved slices are full-slice expressions — an append can never
// clobber a neighbor's storage.
type pool[T any] struct{ all, buf []T }

// reserve sizes the pool's block for n elements.
func (p *pool[T]) reserve(n int) {
	p.all = make([]T, n)
	p.buf = p.all
}

// take returns a zeroed slice of length and capacity n, carved off the block
// or, past its end (a pool nothing reserved: a standalone router), allocated
// exactly.
func (p *pool[T]) take(n int) []T {
	if n > len(p.buf) {
		return make([]T, n)
	}
	s := p.buf[:n:n]
	p.buf = p.buf[n:]
	return s
}

// reset zeroes the block and rewinds take to its start.
func (p *pool[T]) reset() {
	clear(p.all)
	p.buf = p.all
}

// Slabs batches the backing storage for many routers of one network. A
// network builds one Slabs and threads it through every router.New call via
// Config.Slabs. A router is its own struct, its per-port records — noxPort
// for NoX; for a baseline the shared input half inPort plus nsPort or
// specPort — and the FIFO rings behind them, with a NoX port's header mirror
// beside its ring: a walk over ports is a walk over one run of memory.
// Single-goroutine use only (construction time). A nil Slabs in Config
// allocates each carving exactly — same layout.
type Slabs struct {
	noxes    pool[noxRouter]
	specs    pool[specRouter]
	nonspecs pool[nonspecRouter]
	noxPorts pool[noxPort]
	ins      pool[inPort]
	spPorts  pool[specPort]
	nsPorts  pool[nsPort]
	rings    pool[*noc.Flit]
	hdrs     pool[noc.Header]
}

// NewSlabs returns the storage of routers routers of one architecture, radix
// and buffer depth, each pool sized exactly: building that many routers
// through it carves every pool to its end, with no slack.
func NewSlabs(arch Arch, ports, bufferDepth, routers int) *Slabs {
	s := &Slabs{}
	n := routers * ports
	s.rings.reserve(n * buffer.SlotsFor(bufferDepth))
	switch arch {
	case NoX:
		s.noxes.reserve(routers)
		s.noxPorts.reserve(n)
		s.hdrs.reserve(len(s.rings.all))
	case SpecFast, SpecAccurate:
		s.specs.reserve(routers)
		s.ins.reserve(n)
		s.spPorts.reserve(n)
	default:
		s.nonspecs.reserve(routers)
		s.ins.reserve(n)
		s.nsPorts.reserve(n)
	}
	return s
}

// Reset zeroes every pool and rewinds it, so the next network of the same
// shape carves its routers from the same storage, in the same order, as
// from new. No router carved before may be used after Reset.
func (s *Slabs) Reset() {
	s.noxes.reset()
	s.specs.reset()
	s.nonspecs.reset()
	s.noxPorts.reset()
	s.ins.reset()
	s.spPorts.reset()
	s.nsPorts.reset()
	s.rings.reset()
	s.hdrs.reset()
}
