// Package network assembles routers, links, and network interfaces into a
// complete mesh NoC and drives it cycle by cycle. It owns packet injection
// (source queues feeding the routers' local ports) and ejection (sinks that
// decode NoX chains, reassemble wormhole packets, and verify payloads
// bit-exactly against what was injected).
package network

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/probe"
)

// NI is a tile's network interface. The injection side holds an unbounded
// source queue (source queueing time counts toward packet latency, as
// usual) and feeds the router's local input port through a credited link at
// one flit per cycle. The ejection side receives from the router's local
// output through an input-port structure identical to the router's own —
// including the NoX decode register, since encoded chains reach the
// destination interface too, but without its header mirror, since the
// interface loads every flit it buffers to deliver it — and delivers one
// flit per cycle.
type NI struct {
	node noc.NodeID
	net  *Network

	// counters and probe are this interface's instrumentation sinks: the
	// network-wide blocks on the serial path, the home shard's blocks when
	// sharded (so workers never write shared state). shard is the home
	// shard index, 0 when serial.
	counters *power.Counters
	probe    *probe.Probe
	shard    int32

	// injectLink is the channel into the home router's local input, which
	// this interface drives; ejectLink the channel out of the router's local
	// output, which it owns: Commit ends by taking the flit staged there.
	injectLink *noc.Link
	ejectLink  *noc.Link
	// queue is the source queue, a power-of-two ring: queueLen packets from
	// slot queueHead on, doubling when full. A popped slot is cleared, so the
	// ring never holds a packet past its turn. The interface holds every
	// packet it queues (noc.OwnedBySource) until the last flit is sent.
	queue     []*noc.Packet
	queueHead int
	queueLen  int
	cur       *noc.Packet
	curSeq    int

	// arena pools the flits this interface materializes on injection; the
	// flit of every delivered presentation returns to the home arena in
	// Commit (see released).
	arena *noc.Arena

	sink core.InputPort
	// released is the flit delivered this cycle, staged in Compute and
	// returned to the arena in Commit once the sink port has retired its
	// own references (at most one delivery per cycle).
	released *noc.Flit
	// assembling is the packet currently being reassembled, held
	// (noc.OwnedBySink) until it completes or is abandoned.
	assembling  *noc.Packet
	expectSeq   int
	injectedPkt int64

	// dupes counts flits swallowed by the retransmission layer's duplicate
	// suppression at this interface (shard-local; summed by DupSuppressed).
	dupes int64
}

// niQueueRing is the length of a source queue's first ring.
const niQueueRing = 8

// init wires a slab-allocated NI: slots backs the sink port's FIFO ring,
// localRow is the shared all-Local route row (every flit reaching a sink
// ejects), and arena is the home shard's flit pool.
func (ni *NI) init(node noc.NodeID, net *Network, sinkDepth int, slots []*noc.Flit, localRow []noc.Port, arena *noc.Arena) {
	ni.node, ni.net, ni.arena = node, net, arena
	ni.sink.Init(sinkDepth, slots, localRow, arena)
}

// Node returns the tile this interface serves.
func (ni *NI) Node() noc.NodeID { return ni.node }

// QueueLen returns the number of packets waiting in the source queue
// (including the one mid-injection).
func (ni *NI) QueueLen() int {
	n := ni.queueLen
	if ni.cur != nil {
		n++
	}
	return n
}

// queued returns the i-th waiting packet, oldest first.
func (ni *NI) queued(i int) *noc.Packet { return ni.queue[(ni.queueHead+i)&(len(ni.queue)-1)] }

// enqueue appends a packet to the source queue, which holds it.
func (ni *NI) enqueue(p *noc.Packet) {
	p.Hold(noc.OwnedBySource)
	if ni.queueLen == len(ni.queue) {
		grown := make([]*noc.Packet, max(niQueueRing, 2*len(ni.queue)))
		for i := 0; i < ni.queueLen; i++ {
			grown[i] = ni.queued(i)
		}
		ni.queue, ni.queueHead = grown, 0
	}
	ni.queue[(ni.queueHead+ni.queueLen)&(len(ni.queue)-1)] = p
	ni.queueLen++
}

// dequeue removes and returns the oldest waiting packet; the queue must not
// be empty.
func (ni *NI) dequeue() *noc.Packet {
	p := ni.queue[ni.queueHead]
	ni.queue[ni.queueHead] = nil
	ni.queueHead = (ni.queueHead + 1) & (len(ni.queue) - 1)
	ni.queueLen--
	return p
}

// receive buffers a flit arriving from the router's local output port with
// the header the channel carried: the interface's latch calls it with what it
// takes from its ejection link.
func (ni *NI) receive(f *noc.Flit, h noc.Header, cycle int64) {
	if ni.sink.Free() == 0 && ni.net.check != nil {
		// Only an injected credit-duplication fault can overrun the sink
		// (the credit protocol otherwise forbids it): report and swallow.
		ni.net.check.Overflow(cycle, int(ni.node), -1, f.ID)
		ni.arena.Release(f)
		return
	}
	ni.sink.Accept(f, h)
	ni.counters.BufWrite++
	if pr := ni.probe; pr != nil {
		if f.Encoded {
			pr.NIBufWrite(cycle, int(ni.node), f.Raw, -1)
		} else {
			pr.NIBufWrite(cycle, int(ni.node), f.ID, f.Seq)
		}
	}
}

// Compute injects the next flit of the packet under transmission and ejects
// (decoding if necessary) one delivered flit.
func (ni *NI) Compute(cycle int64) {
	// Injection side.
	if ni.cur == nil && ni.queueLen > 0 {
		ni.cur, ni.curSeq = ni.dequeue(), 0
	}
	if ni.cur != nil && ni.injectLink.Ready(cycle) {
		if ni.curSeq == 0 {
			ni.cur.InjectCycle = cycle
			if pr := ni.probe; pr != nil {
				pr.Inject(cycle, int(ni.node), ni.cur.ID, ni.cur.Length)
			}
		}
		f := ni.arena.NewFlit(ni.cur, ni.curSeq)
		ni.injectLink.SendHeader(f, f.Header())
		ni.curSeq++
		if ni.curSeq == ni.cur.Length {
			ni.letGo(ni.cur, noc.OwnedBySource)
			ni.cur = nil
		}
	}

	// Ejection side: at most one flit per cycle leaves the sink port.
	if f, decoded, ok := ni.sink.Offer(); ok {
		if decoded {
			if pr := ni.probe; pr != nil {
				pr.NIDecode(cycle, int(ni.node), f.ID)
			}
		}
		ni.sink.Service()
		ni.deliver(f, cycle)
	}
}

// Quiet implements sim.Quiescable: nothing buffered (FIFO or decode
// register) on the sink side, and on the source side either nothing queued
// or mid-injection, or a packet mid-injection stalled on a creditless
// injection channel. A partially reassembled packet with an empty sink is
// quiet — its remaining flits wake the interface on arrival — and so is the
// stalled sender: Compute finds Ready false and an empty sink, Commit has
// nothing staged, so evaluation cannot change it until the home router's
// returned credits lift the count off zero, which wakes it (the injection
// link's source wake). An interface between packets with one queued is not
// quiet (the packet still needs its pop into cur), nor is a sender
// mid-packet with credits left (a time-varying stall fault may be all that
// holds it back). Re-activation paths: Network.InjectAs wakes the
// interface directly, the router's Send on the ejection link covers the sink
// side, and the credit return covers the stalled sender.
func (ni *NI) Quiet() bool {
	if ni.sink.Buffered() != 0 || ni.sink.RegisterBusy() {
		return false
	}
	if ni.cur == nil {
		return ni.queueLen == 0
	}
	return ni.injectLink.Credits() == 0 && ni.released == nil
}

// Latch implements sim.Latcher: the flit the router staged on the ejection
// link this cycle enters the sink port.
func (ni *NI) Latch(cycle int64) {
	if f, h := ni.ejectLink.Take(cycle); f != nil {
		ni.receive(f, h, cycle)
	}
}

// Commit applies the sink port's staged actions, returns its credits, and
// takes in this cycle's arrival.
func (ni *NI) Commit(cycle int64) {
	ev := ni.sink.Commit()
	c := ni.counters
	if ev.DecodeErr != nil {
		// The lenient sink port discarded a corrupt decode register
		// (ejection-side XOR chain broken by an injected fault).
		ck := ni.net.check
		ck.Decode(cycle, int(ni.node), -1, ev.DecodeErr)
		ck.MarkLeaky()
	}
	c.BufRead += int64(ev.Reads())
	if ev.Latched {
		c.RegWrite++
	}
	if ev.Decoded {
		c.Decode++
	}
	if pr := ni.probe; pr != nil && ev.Reads() > 0 {
		pr.NIBufRead(cycle, int(ni.node), ev.Reads())
	}
	if ev.FreedSlots > 0 {
		ni.ejectLink.ReturnCredits(cycle, int(ev.FreedSlots))
	}
	if f := ni.released; f != nil {
		// The flit delivered this cycle is now unreachable: the sink commit
		// above retired the port's own references, and delivery consumed the
		// payload. It returns to this interface's arena regardless of which
		// arena allocated it (pooled flits migrate across shards).
		ni.released = nil
		ni.arena.Release(f)
	}
	ni.Latch(cycle)
}

// deliver consumes one decoded flit, verifies it bit-exactly, reassembles
// wormhole packets, and completes packet delivery at the tail.
//
// With a checker armed, the delivery-oracle assertions record violations
// instead of panicking (injected faults make every one reachable): a
// corrupt payload is still delivered (the corruption is the finding, the
// packet is not lost), while misrouted, orphan, gapped, or interleaved
// flits are swallowed and recycled — their packets surface through the
// lost-packet scan in Checker.Finalize.
func (ni *NI) deliver(f *noc.Flit, cycle int64) {
	ck := ni.net.check
	if f.Closed() {
		// A copy of a packet already delivered or retired: a duplicate of a
		// retransmitted packet overtaken by the original, or a straggler of
		// one the network gave up on, suppressed by sequence identity (the
		// receiver-side half of end-to-end retransmission). Without
		// retransmission the simulator never produces one; a restored image
		// can hold a second copy of a flit that validation cannot tell from
		// the first.
		ni.released = f
		if ni.net.rel != nil {
			ni.dupes++
			return
		}
		if ck == nil {
			panic(fmt.Sprintf("network: flit seq %d at node %d outlived its packet", f.Seq, ni.node))
		}
		ck.Sequence(cycle, int(ni.node), f.ID, fmt.Sprintf("flit seq=%d of a packet already delivered", f.Seq))
		return
	}
	p := f.Packet
	if p.Dst != ni.node {
		if ck == nil {
			panic(fmt.Sprintf("network: flit %v misrouted to node %d", f, ni.node))
		}
		ck.Misroute(cycle, int(ni.node), p.ID, int(p.Dst))
		ni.released = f
		return
	}
	if want := noc.PayloadWord(p.ID, p.Src, p.Dst, f.Seq); f.Raw != want {
		if ck == nil {
			panic(fmt.Sprintf("network: payload corruption on %v: got %#x want %#x", f, f.Raw, want))
		}
		ck.Payload(cycle, int(ni.node), p.ID, f.Seq, f.Raw, want)
	}
	if ni.assembling == nil {
		if f.Seq != 0 {
			if ck == nil {
				panic(fmt.Sprintf("network: body flit %v without head", f))
			}
			ck.Sequence(cycle, int(ni.node), p.ID, fmt.Sprintf("body flit seq=%d with no head in reassembly", f.Seq))
			ni.released = f
			return
		}
		ni.assemble(p)
	} else if ni.net.rel != nil && p == ni.assembling && f.Seq == 0 && ni.expectSeq > 0 {
		// A fresh head of the very packet mid-reassembly: an end-to-end
		// retransmission restarted it after the earlier attempt's remaining
		// flits were lost in a reconfiguration flush. Restart from the head
		// — the retransmitted sequence is complete and self-consistent.
		ni.expectSeq = 0
	} else if ck != nil && p != ni.assembling && f.Seq == 0 {
		// A fresh head while another packet is mid-reassembly: the previous
		// packet's tail was lost. Abandon it (it can never complete) so one
		// fault does not poison every later delivery at this interface.
		ck.Sequence(cycle, int(ni.node), ni.assembling.ID,
			fmt.Sprintf("reassembly abandoned at seq %d, preempted by pkt %d", ni.expectSeq, p.ID))
		ni.letGo(ni.assembling, noc.OwnedBySink)
		ni.assemble(p)
	}
	if p != ni.assembling || f.Seq != ni.expectSeq {
		if ck == nil {
			panic(fmt.Sprintf("network: interleaved wormhole delivery: got %v want pkt%d.%d", f, ni.assembling.ID, ni.expectSeq))
		}
		if p == ni.assembling {
			ck.Sequence(cycle, int(ni.node), p.ID, fmt.Sprintf("sequence gap: got seq %d want %d", f.Seq, ni.expectSeq))
			// A gapped packet can never complete; stop expecting it.
			ni.letGo(p, noc.OwnedBySink)
			ni.assembling = nil
		} else {
			ck.Sequence(cycle, int(ni.node), p.ID,
				fmt.Sprintf("body flit seq=%d interleaved into reassembly of pkt %d", f.Seq, ni.assembling.ID))
		}
		ni.released = f
		return
	}
	ni.expectSeq++
	ni.released = f
	if f.Seq == p.Length-1 {
		// Never the last hold: the network holds p until it retires it.
		ni.letGo(p, noc.OwnedBySink)
		ni.assembling = nil
		p.DeliverCycle = cycle
		if pr := ni.probe; pr != nil {
			pr.Deliver(cycle, int(ni.node), p.ID, cycle-p.CreateCycle)
		}
		if n := ni.net; n.shardOfNode != nil {
			// Sharded: stage the completed packet for the step epilogue,
			// which replays deliveries in interface order on the stepping
			// goroutine — the network's delivered count and OnDeliver
			// observers are shared state a worker must not touch.
			box := &n.local[ni.shard].mailbox
			*box = append(*box, delivery{p: p, ni: int32(ni.node)})
		} else {
			n.deliver(p, cycle)
		}
	}
}

// assemble starts the reassembly of p, which the interface holds until the
// packet completes or is abandoned.
func (ni *NI) assemble(p *noc.Packet) {
	p.Hold(noc.OwnedBySink)
	ni.assembling, ni.expectSeq = p, 0
}

// letGo ends this interface's hold o on p from inside a step. A serial
// network releases it at once. A sharded one steps interfaces on shard
// workers, where the slab may not be touched and the packet's other
// interface may be changing its own hold: only once the network and any
// retransmission entry have let go (they do so between phases) can this have
// been the last hold, and then the step epilogue decides (drainShardMail).
func (ni *NI) letGo(p *noc.Packet, o noc.Owner) {
	n := ni.net
	if n.shardOfNode == nil {
		n.packets.Release(p, o)
		return
	}
	p.Drop(o)
	if !p.Holds(noc.OwnedByNetwork) && !p.Holds(noc.OwnedByEntry) {
		box := &n.local[ni.shard].mailbox
		*box = append(*box, delivery{p: p, ni: int32(ni.node), release: true})
	}
}
