package network

import (
	"runtime"
	"sync"

	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
)

// shape is what sizes every slice New carves: two networks of one shape
// carve the same slices, of the same lengths, in the same order.
type shape struct {
	topo          noc.Topology
	concentration int
	arch          router.Arch
	bufferDepth   int
	sinkDepth     int
	shards        int
}

// storage is the backing memory of one network (DESIGN §2, "Network
// storage"): every slice New makes, sized exactly for its shape, plus the
// kernel, the packet slab's first chunk and each shard arena's first block.
// A closed network hands its storage to the free list of its shape (release);
// the next New of that shape takes it (acquire) and carves it as it would
// carve new memory, so a rebuilt network is byte-identical to a new one and
// costs no allocation.
type storage struct {
	shape  shape
	kernel sim.Kernel
	slabs  *router.Slabs
	// packets holds the packet slab between networks; a network works on
	// its own copy of the slab header and hands it back at Close.
	packets noc.PacketSlab

	local        []shardLocal
	shardOfNode  []int32
	mailHeads    []int
	routers      []router.Router
	nis          []*NI
	niSlab       []NI
	localRow     []noc.Port
	sinkSlots    []*noc.Flit
	routerHandle []sim.Handle
	niHandle     []sim.Handle
	shardOf      []int
	tileBase     []int
	linkSlab     []noc.Link
	links        []*noc.Link
	sites        []noc.LinkSite
}

// carve returns the first n elements of *s — zero, as made or as scrub left
// them — allocating the slice only when it is shorter: on new storage every
// carve allocates exactly, on recycled storage none does.
func carve[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// scrub zeroes everything the last network left in the storage, so nothing
// it referenced stays reachable while the storage waits for its next
// network. The packet slab and the shard arenas keep their first chunk and
// block, scrubbed; an interface keeps its source queue's first ring, empty.
// Whatever grew past those is dropped.
func (st *storage) scrub() {
	st.kernel.Reset()
	st.slabs.Reset()
	st.packets.Reset()
	for i := range st.local {
		a := st.local[i].arena
		a.Reset()
		st.local[i] = shardLocal{arena: a}
	}
	for i := range st.niSlab {
		q := st.niSlab[i].queue
		st.niSlab[i] = NI{}
		if len(q) == niQueueRing {
			clear(q)
			st.niSlab[i].queue = q
		}
	}
	clear(st.shardOfNode)
	clear(st.mailHeads)
	clear(st.routers)
	clear(st.nis)
	clear(st.localRow)
	clear(st.sinkSlots)
	clear(st.routerHandle)
	clear(st.niHandle)
	clear(st.shardOf[:cap(st.shardOf)])
	clear(st.tileBase)
	clear(st.linkSlab)
	clear(st.links[:cap(st.links)])
	clear(st.sites[:cap(st.sites)])
}

// free is the per-shape free list of closed networks' storage: at most
// GOMAXPROCS records a shape, the most a pool of workers stepping one
// network each can take back at once; a record past that is left to the
// garbage collector. Not a sync.Pool: a pool's per-P slot is out of reach of
// a goroutine that migrated, and under the race detector Put drops records
// at random, so a rebuild would allocate when it need not.
var free struct {
	sync.Mutex
	byShape map[shape][]*storage
}

// acquire returns the most recently released storage of the shape, scrubbed,
// or new storage with every slice still to be made.
func acquire(sh shape) *storage {
	free.Lock()
	defer free.Unlock()
	list := free.byShape[sh]
	if len(list) == 0 {
		return &storage{shape: sh}
	}
	st := list[len(list)-1]
	list[len(list)-1] = nil
	free.byShape[sh] = list[:len(list)-1]
	return st
}

// release scrubs st and puts it on its shape's free list, or drops it when
// the list is full.
func release(st *storage) {
	st.scrub()
	free.Lock()
	defer free.Unlock()
	if free.byShape == nil {
		free.byShape = make(map[shape][]*storage)
	}
	if list := free.byShape[st.shape]; len(list) < runtime.GOMAXPROCS(0) {
		free.byShape[st.shape] = append(list, st)
	}
}
