package noc

import (
	"testing"
	"unsafe"

	"repro/internal/alloctest"
)

// TestPacketFootprint pins what a packet costs the allocator. Packets are
// the bulk of every workload's allocation (one per injection, garbage after
// delivery), so their size sets how often the collector runs; 112 bytes is
// the allocator size class the current fields fit, and a single-flit
// packet must stay one allocation.
const sizeofPacket = unsafe.Sizeof(Packet{})

func uintptrOf(p *Packet) uintptr { return uintptr(unsafe.Pointer(p)) }

func TestPacketFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 112 {
		t.Errorf("Packet is %d bytes, want <= 112", size)
	}
	if avg := alloctest.Allocs(100, alloctest.Same(func() { NewPacket(1, 0, 1, 1, 0, 0) })); avg != 1 {
		t.Errorf("single-flit NewPacket = %v allocs, want 1", avg)
	}
	if avg := alloctest.Allocs(100, alloctest.Same(func() { NewPacket(1, 0, 1, 9, 0, 0) })); avg != 2 {
		t.Errorf("9-flit NewPacket = %v allocs, want 2 (packet + payload words)", avg)
	}
}

// TestFlitFootprint pins the flit at one 64-byte line: its header (packet ID,
// destination, tail and multi-flit bits) fits beside the packet pointer,
// sequence number, wire image and constituent set.
func TestFlitFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Flit{}); size != 64 {
		t.Errorf("Flit is %d bytes, want 64", size)
	}
}
