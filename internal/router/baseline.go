package router

import (
	"fmt"
	"math/bits"

	"repro/internal/buffer"
	"repro/internal/noc"
	"repro/internal/snapshot/codec"
)

// inPort is the input half of a baseline (non-speculative, speculative)
// port: the FIFO, what Compute needs to know of its head, and the channel
// feeding it — one cache line. (NoX's input half is core.InputPort.)
type inPort struct {
	fifo buffer.FIFO
	head headInfo
	link *noc.Link
}

// baseline is what the two baseline routers share. A baseline port is two
// records: the input half, identical in both architectures, so that
// everything handling arrivals, pops, flushes and checkpoints of the input
// side is written once, here; and the architecture's own half (nsPort,
// specPort) with the state of the same-numbered output.
type baseline struct {
	base
	in []inPort
	// busy has a bit per input whose FIFO holds a flit: receive sets it, the
	// pop that empties the FIFO clears it. Compute gathers requests from
	// these inputs only.
	busy uint32
	// pops is the cycle's staged action: inputs whose head traversed.
	pops uint32
}

func (b *baseline) init(cfg *Config, sink flitSink) {
	b.base.init(cfg, sink)
	b.in = cfg.Slabs.ins.take(cfg.Ports)
	sl := buffer.SlotsFor(cfg.BufferDepth)
	rings := cfg.Slabs.rings.take(cfg.Ports * sl)
	for i := range b.in {
		b.in[i].fifo.Init(cfg.BufferDepth, rings[i*sl:(i+1)*sl:(i+1)*sl])
	}
}

// SetInputLink registers the link feeding port p.
func (b *baseline) SetInputLink(p noc.Port, l *noc.Link) {
	b.in[p].link = l
	b.bindInput(p, l)
}

// BufferedFlits returns the number of flits held in input FIFOs.
func (b *baseline) BufferedFlits() int {
	n := 0
	for m := b.busy; m != 0; m &= m - 1 {
		n += b.in[bits.TrailingZeros32(m)].fifo.Len()
	}
	return n
}

// portState is port i's PortState: input FIFO occupancy plus, when output i
// is wired (out non-nil), the input holding it and its link credits.
func (b *baseline) portState(i int, out *noc.Link, lock int8) PortState {
	ps := PortState{Buffered: b.in[i].fifo.Len(), OutMode: -1, OutLock: -1, OutCredits: -1}
	if out != nil {
		ps.OutLock, ps.OutCredits = int(lock), out.Credits()
	}
	return ps
}

// Latch implements sim.Latcher: the flits staged on the input channels this
// cycle enter their ports' FIFOs. Only the channels named in the staged-input
// mask carry one, taken in ascending port order.
func (b *baseline) Latch(cycle int64) {
	for m := b.staged; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if f, h := b.in[i].link.Take(cycle); f != nil {
			b.receive(noc.Port(i), f, h, cycle)
		}
	}
	b.staged = 0
}

// gather fills req with the inputs requesting each output, from the cached
// heads of the busy inputs, and returns the outputs requested. req is the
// caller's stack scratch: dead at its return, never shared between shards.
func (b *baseline) gather(req *[maxPorts]uint32) (outs uint32) {
	for m := b.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		o := b.in[i].head.out
		req[o] |= 1 << uint(i)
		outs |= 1 << uint(o)
	}
	return outs
}

// send stages the switch traversal of input i's head to output o over out,
// and returns the wormhole lock of the output after it (lock before).
func (b *baseline) send(i, o int, out *noc.Link, lock int8, cycle int64) int8 {
	h := b.in[i].head.hdr
	if h.MultiFlit() {
		if h.Head() {
			lock = int8(i)
		}
		if h.Tail() {
			lock = -1
		}
	}
	f := b.in[i].fifo.Head()
	if pr := b.probe; pr != nil {
		pr.Traverse(cycle, int(b.node), o, f.ID, f.Seq)
	}
	out.SendHeader(f, h)
	b.pops |= 1 << uint(i)
	b.counters.Xbar++
	b.counters.LinkFlit++
	b.counters.OutputActive++
	return lock
}

// headInfo describes the flit at the head of an input FIFO, cached from its
// header when the head changes (an arrival into an empty FIFO, the pop that
// exposes the next flit, a restore). A head that waits — for a credit, a
// lock, an arbiter — then costs its port record per cycle and not its flit,
// which sits wherever the arena put it; and it leaves with the header cached
// here, so the traversal loads no flit either.
type headInfo struct {
	// id is the head flit's packet ID, 0 when the FIFO is empty.
	id uint64
	// hdr is the head flit's routing header: its head, tail and multi-flit
	// bits decide the wormhole lock.
	hdr noc.Header
	// out is the head flit's lookahead output port.
	out noc.Port
}

// headOfFIFO describes q's head (unencoded), the zero headInfo when q is
// empty.
func headOfFIFO(q *buffer.FIFO) headInfo {
	f := q.Head()
	if f == nil {
		return headInfo{}
	}
	return headInfo{id: f.ID, hdr: f.Header(), out: f.OutPort}
}

// receive buffers a flit latched from port p's channel and computes its
// lookahead route from the header the channel carried. A baseline FIFO keeps
// the route of every buffered flit in the flit (Flit.OutPort): only its head
// is cached (headInfo).
func (b *baseline) receive(p noc.Port, f *noc.Flit, h noc.Header, cycle int64) {
	if h.Encoded() {
		panic("router: baseline router received an encoded flit")
	}
	in := &b.in[p]
	if b.overflow(p, f, cycle, in.fifo.Free()) {
		return
	}
	f.OutPort = b.route(h.Dst())
	in.fifo.Push(f)
	if b.busy&(1<<uint(p)) == 0 {
		in.head = headOfFIFO(&in.fifo)
		b.busy |= 1 << uint(p)
	}
	b.counters.BufWrite++
	if pr := b.probe; pr != nil {
		pr.BufWrite(cycle, int(b.node), int(p), f.ID, f.Seq)
	}
}

// pop removes input i's head, which traversed this cycle, and hands its slot
// back upstream; true means the next flit of the FIFO is now exposed.
func (b *baseline) pop(i int, cycle int64) (exposed bool) {
	in := &b.in[i]
	in.fifo.Pop()
	in.head = headOfFIFO(&in.fifo)
	b.counters.BufRead++
	if pr := b.probe; pr != nil {
		pr.BufRead(cycle, int(b.node), i, 1)
	}
	returnCredits(in.link, 1, cycle)
	if in.fifo.Empty() {
		b.busy &^= 1 << uint(i)
		return false
	}
	return true
}

// flushInputs empties every FIFO through drop, releasing each flit to the
// arena, and clears the input masks.
func (b *baseline) flushInputs(drop func(*noc.Flit)) {
	for i := range b.in {
		q := &b.in[i].fifo
		for !q.Empty() {
			f := q.Pop()
			if drop != nil {
				drop(f)
			}
			b.arena.Release(f)
		}
		b.in[i].head = headInfo{}
	}
	b.busy, b.pops, b.staged = 0, 0, 0
}

// auditInputs checks every cached head against its FIFO and returns the busy
// mask a scan of the FIFOs gives.
func (b *baseline) auditInputs() (busy uint32, err error) {
	for i := range b.in {
		in := &b.in[i]
		if !in.fifo.Empty() {
			busy |= 1 << uint(i)
		}
		if want := headOfFIFO(&in.fifo); in.head != want {
			return 0, fmt.Errorf("router %d input %d: cached head %+v, FIFO head %+v", b.node, i, in.head, want)
		}
	}
	return busy, nil
}

func (b *baseline) saveInputs(e *codec.Encoder) {
	for i := range b.in {
		q := &b.in[i].fifo
		e.Int(q.Len())
		for k := 0; k < q.Len(); k++ {
			e.Flit(q.At(k))
		}
	}
}

// restoreInputs loads the queues saveInputs wrote. Beyond what the codec
// checks it applies what the restoring router's first Step would otherwise
// panic on: the baselines buffer no encoded flits, and a lookahead port must
// name one of this router's wired outputs.
func (b *baseline) restoreInputs(d *codec.Decoder) error {
	for i := range b.in {
		in := &b.in[i]
		n := d.Len(in.fifo.Cap())
		if err := d.Err(); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			f := d.QueuedFlit()
			if err := d.Err(); err != nil {
				return err
			}
			if f == nil || f.Encoded {
				return fmt.Errorf("%w: nil or encoded flit in a baseline router FIFO", codec.ErrCorrupt)
			}
			if b.wired>>uint(f.OutPort)&1 == 0 {
				return fmt.Errorf("%w: buffered flit routed to output %d, not one of %#b", codec.ErrCorrupt, f.OutPort, b.wired)
			}
			in.fifo.Push(f)
		}
		if in.head = headOfFIFO(&in.fifo); !in.fifo.Empty() {
			b.busy |= 1 << uint(i)
		}
	}
	return nil
}
