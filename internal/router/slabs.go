package router

import (
	"unsafe"

	"repro/internal/noc"
)

// pool is a chunked bump allocator: take carves zeroed subslices off a
// growing chunk, so the backing storage for a whole network's routers costs
// a handful of heap allocations per element type instead of several per
// router. Carved slices are full-slice expressions — an append can never
// clobber a neighbor's storage.
type pool[T any] struct{ buf []T }

// take returns a zeroed slice of length and capacity n. chunkBytes is the
// refill chunk size in bytes (bounding both allocation count and zeroed
// slack); 0 allocates exactly n — the standalone, nothing-retained mode.
func (p *pool[T]) take(n, chunkBytes int) []T {
	if n > len(p.buf) {
		c := n
		if chunkBytes > 0 {
			var t T
			if size := int(unsafe.Sizeof(t)); size > 0 {
				if per := chunkBytes / size; per > c {
					c = per
				}
			}
		}
		p.buf = make([]T, c)
	}
	s := p.buf[:n:n]
	p.buf = p.buf[n:]
	return s
}

// Slabs batches the backing storage for many routers of one network. A
// network builds one Slabs and threads it through every router.New call via
// Config.Slabs. A router is its own struct, its per-port records — noxPort
// for NoX; for a baseline the shared input half inPort plus nsPort or
// specPort — and the FIFO rings behind them: a walk over ports is a walk
// over one run of memory. Single-goroutine use only (construction time). A
// nil Slabs in Config allocates each carving exactly — same layout.
type Slabs struct {
	chunk    int
	noxes    pool[noxRouter]
	specs    pool[specRouter]
	nonspecs pool[nonspecRouter]
	noxPorts pool[noxPort]
	ins      pool[inPort]
	spPorts  pool[specPort]
	nsPorts  pool[nsPort]
	rings    pool[*noc.Flit]
}

// NewSlabs returns a batch allocator for the construction of many routers.
func NewSlabs() *Slabs {
	return &Slabs{chunk: 16 << 10}
}
