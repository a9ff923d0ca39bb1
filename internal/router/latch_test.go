package router

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/routing"
)

// stagedBits exposes the staged-input mask of any architecture to the tests.
func (b *base) stagedBits() *uint32 { return &b.staged }

func stagedOf(r Router) *uint32 { return r.(interface{ stagedBits() *uint32 }).stagedBits() }

// TestLatchStagedInputsInPortOrder: three neighbours send in one cycle, in
// descending port order. Each Send raises exactly its input's bit, and the
// latch takes the flits in ascending port order — the order a poll of every
// input took them in — and leaves the mask zero.
func TestLatchStagedInputsInPortOrder(t *testing.T) {
	for _, arch := range Archs {
		pr := probe.New(probe.Config{})
		r := New(Config{Arch: arch, Node: 4, Routes: routing.NewTable(noc.Topology{Width: 3, Height: 3}), Probe: pr})
		var in [noc.NumPorts]*noc.Link
		for p := noc.Port(0); p < noc.NumPorts; p++ {
			in[p] = noc.NewLink(r.InputReceiver(p), 4)
			r.SetInputLink(p, in[p])
			r.SetOutputLink(p, noc.NewLink(&recorder{}, 4))
		}
		staged := stagedOf(r)
		want := uint32(0)
		for i, p := range []noc.Port{noc.Local, noc.South, noc.North} {
			in[p].Send(single(uint64(10 + i)))
			want |= 1 << uint(p)
			if *staged != want {
				t.Fatalf("%s: after a send on port %d the staged mask is %#b, want %#b", arch, p, *staged, want)
			}
		}
		r.Compute(0)
		r.Commit(0)
		if *staged != 0 {
			t.Errorf("%s: staged mask %#b after the latch", arch, *staged)
		}
		var ports []int8
		for _, ev := range pr.Events() {
			if ev.Kind == probe.EvBufWrite {
				ports = append(ports, ev.Port)
			}
		}
		if got, want := fmt.Sprint(ports), fmt.Sprint([]int8{int8(noc.North), int8(noc.South), int8(noc.Local)}); got != want {
			t.Errorf("%s: buffer writes on ports %v, want %v", arch, got, want)
		}
		if err := r.Audit(); err != nil {
			t.Errorf("%s: %v", arch, err)
		}
	}
}

// TestAuditStagedMask: between steps a raised bit is a flit staged and never
// latched, and Audit must name it; Flush leaves the mask zero.
func TestAuditStagedMask(t *testing.T) {
	for _, arch := range Archs {
		r := cornerRouter(arch)
		if err := r.Audit(); err != nil {
			t.Fatalf("%s: fresh router: %v", arch, err)
		}
		*stagedOf(r) = 1 << uint(noc.East)
		if err := r.Audit(); err == nil || !strings.Contains(err.Error(), "staged") {
			t.Errorf("%s: Audit with a staged bit up = %v, want a staged-mask error", arch, err)
		}
		r.Flush(nil)
		if err := r.Audit(); err != nil {
			t.Errorf("%s: after Flush: %v", arch, err)
		}
	}
}
