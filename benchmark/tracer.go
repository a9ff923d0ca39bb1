package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a simulator layer.
type span struct {
	Name   string
	Cell   string // the cell (unit of simulated work) the call belongs to
	Parent int    // index of the enclosing span, -1 at the root
	Start  time.Duration
	End    time.Duration
}

// tracer is the in-memory span recorder of the traced repetition. A nil
// *tracer is the disabled recorder: every method is a no-op, so drivers
// thread one pointer through and the untraced path takes no timestamps.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name, cell string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned, and any span opened inside it that a
// recovered panic left open.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.spans[top].End = now
		t.stack = t.stack[:n-1]
		if top == id {
			return
		}
	}
}

// add records an already-measured child of the innermost open span: the
// open drivers time inject and Step every cycle and fold a batch of cycles
// into one span per phase, laid end to end from the batch's start.
func (t *tracer) add(name, cell string, start, dur time.Duration) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, Start: start, End: start + dur})
}

// cycleBatch accumulates the per-cycle inject and Step times of an open
// driver and emits one span per phase every n cycles.
type cycleBatch struct {
	t      *tracer
	cell   string
	n      int
	k      int
	start  time.Duration
	inject time.Duration
	step   time.Duration
}

// driveCycles runs n cycles of an open driver: inject then step, every
// cycle. Untraced it is the bare loop; traced it times both phases of every
// cycle and emits one span pair per batch cycles under the open span.
func (t *tracer) driveCycles(cell string, n int64, batch int, inject, step func()) {
	if t == nil {
		for cyc := int64(0); cyc < n; cyc++ {
			inject()
			step()
		}
		return
	}
	b := &cycleBatch{t: t, cell: cell, n: batch}
	for cyc := int64(0); cyc < n; cyc++ {
		t0 := time.Now()
		inject()
		t1 := time.Now()
		step()
		b.cycle(t0, t1, time.Now())
	}
	b.flush()
}

// cycle folds one cycle's timestamps (before inject, between inject and
// Step, after Step) into the batch.
func (b *cycleBatch) cycle(t0, t1, t2 time.Time) {
	if b.k == 0 {
		b.start = t0.Sub(b.t.t0)
	}
	b.inject += t1.Sub(t0)
	b.step += t2.Sub(t1)
	if b.k++; b.k == b.n {
		b.flush()
	}
}

func (b *cycleBatch) flush() {
	if b.k == 0 {
		return
	}
	b.t.add(fmt.Sprintf("inject x%d", b.k), b.cell, b.start, b.inject)
	b.t.add(fmt.Sprintf("Step x%d", b.k), b.cell, b.start+b.inject, b.step)
	b.k, b.inject, b.step = 0, 0, 0
}

func (s span) dur() time.Duration { return s.End - s.Start }

// children returns the direct children of span id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// summary aggregates spans by name (batched names share their prefix) for
// the printed self-time table.
type nameTotal struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (t *tracer) summary() []nameTotal {
	self := t.selfTimes()
	byName := map[string]*nameTotal{}
	for i, s := range t.spans {
		name := s.Name
		for j := 0; j < len(name); j++ {
			if name[j] == ' ' { // "Step x250" -> "Step"
				name = name[:j]
				break
			}
		}
		nt := byName[name]
		if nt == nil {
			nt = &nameTotal{Name: name}
			byName[name] = nt
		}
		nt.Count++
		nt.Total += s.dur()
		nt.Self += self[i]
	}
	out := make([]nameTotal, 0, len(byName))
	for _, nt := range byName {
		out = append(out, *nt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]string{"id": fmt.Sprint(i), "parent": fmt.Sprint(s.Parent)}
		if s.Cell != "" {
			args["cell"] = s.Cell
		}
		events[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
