// Package fault deterministically injects channel-level faults into a
// simulated network: payload bit-flips, dropped flits, transient link
// stalls, and credit loss/duplication, each at a configurable rate over a
// configurable cycle window.
//
// Every decision is a pure hash of (campaign seed, channel site, cycle), so
// a campaign is replayable from its Spec alone and — because the simulator
// itself is bit-exact across shard counts — fault firings and their
// consequences are identical at any -shards setting. The Injector plugs
// into noc.Link via the noc.Tamperer interface and is bound to exactly one
// network.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/noc"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// BitFlip flips one pseudo-random bit of a flit's 64-bit payload on the
	// wire. On a raw flit this surfaces as a delivery-oracle payload
	// mismatch; on an XOR-encoded flit it breaks the downstream decode's
	// raw-image identity (wire.Decode's bit-exactness check).
	BitFlip Kind = iota
	// Drop discards a flit on the wire. The sender's credit is permanently
	// lost at the site, and constituents of an encoded flit leak from the
	// arena (both accounted for by the conservation checks).
	Drop
	// Stall makes a channel refuse new traffic for a window of StallCycles
	// cycles — observed by senders as backpressure, which also exercises
	// the delayed-wake paths of the quiescence machinery.
	Stall
	// CreditLoss discards a staged credit return, shrinking the sender's
	// usable window; losing enough wedges the channel (deadlock watchdog).
	CreditLoss
	// CreditDup duplicates a staged credit return, letting the sender
	// overrun the downstream buffer (overflow guards report it).
	CreditDup

	NumKinds = 5
)

// String returns the short report label for the kind.
func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "flip"
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case CreditLoss:
		return "closs"
	case CreditDup:
		return "cdup"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Spec is a replayable fault-campaign description. Rates are per-event
// probabilities: BitFlip/Drop per flit-traversal, Stall per (site, cycle)
// window start, CreditLoss/CreditDup per returned credit. The zero Spec
// injects nothing.
type Spec struct {
	// Seed drives every fault decision; two runs of the same Spec on the
	// same workload fire identical faults.
	Seed uint64 `json:"seed"`
	// Start/End bound the active window in cycles; End 0 means unbounded,
	// otherwise the window is [Start, End).
	Start int64 `json:"start_cycle,omitempty"`
	End   int64 `json:"end_cycle,omitempty"`

	BitFlip float64 `json:"bit_flip_rate,omitempty"`
	Drop    float64 `json:"drop_rate,omitempty"`
	Stall   float64 `json:"stall_rate,omitempty"`
	// StallCycles is the duration of one stall window (default 8).
	StallCycles int64   `json:"stall_cycles,omitempty"`
	CreditLoss  float64 `json:"credit_loss_rate,omitempty"`
	CreditDup   float64 `json:"credit_dup_rate,omitempty"`

	// DeadLinks schedules permanent link faults; see hard.go.
	DeadLinks []DeadLink `json:"dead_links,omitempty"`
}

// ErrBadSpec is wrapped by every Spec validation failure.
var ErrBadSpec = errors.New("fault: invalid spec")

// Validate checks rate and window sanity.
func (s Spec) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"bit_flip_rate", s.BitFlip},
		{"drop_rate", s.Drop},
		{"stall_rate", s.Stall},
		{"credit_loss_rate", s.CreditLoss},
		{"credit_dup_rate", s.CreditDup},
	} {
		if math.IsNaN(r.v) || r.v < 0 || r.v >= 1 {
			// NaN fails every comparison, so it is named: unchecked, it fires
			// no fault and the campaign reports clean.
			return fmt.Errorf("%w: %s %v outside [0,1)", ErrBadSpec, r.name, r.v)
		}
	}
	if s.CreditLoss+s.CreditDup >= 1 {
		return fmt.Errorf("%w: credit_loss_rate+credit_dup_rate %v >= 1", ErrBadSpec, s.CreditLoss+s.CreditDup)
	}
	if s.StallCycles < 0 {
		return fmt.Errorf("%w: stall_cycles %d negative", ErrBadSpec, s.StallCycles)
	}
	if s.Start < 0 {
		return fmt.Errorf("%w: start_cycle %d negative", ErrBadSpec, s.Start)
	}
	if s.End != 0 && s.End <= s.Start {
		return fmt.Errorf("%w: end_cycle %d not after start_cycle %d", ErrBadSpec, s.End, s.Start)
	}
	return s.validateHard()
}

// ParseSpec decodes a strict-JSON campaign spec (unknown fields rejected)
// and validates it.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String renders the spec as a deterministic one-line report header.
func (s Spec) String() string {
	end := "inf"
	if s.End != 0 {
		end = fmt.Sprintf("%d", s.End)
	}
	base := fmt.Sprintf("seed=0x%X window=[%d,%s) flip=%.4f drop=%.4f stall=%.4fx%d closs=%.4f cdup=%.4f",
		s.Seed, s.Start, end, s.BitFlip, s.Drop, s.Stall, s.stallCycles(), s.CreditLoss, s.CreditDup)
	if h := s.hardString(); h != "" {
		base += " " + h
	}
	return base
}

func (s Spec) stallCycles() int64 {
	if s.StallCycles <= 0 {
		return 8
	}
	return s.StallCycles
}

func (s Spec) active(cycle int64) bool {
	return cycle >= s.Start && (s.End == 0 || cycle < s.End)
}

// Injector implements noc.Tamperer for one network. Create one per
// simulation; the network binds it to its channel sites at construction and
// a second bind panics.
type Injector struct {
	spec  Spec
	sites int

	// counts is a flat [site][kind] matrix. Each (site, kind) cell has a
	// single writer: flip/drop/credit cells are written by the link-commit
	// goroutine (the sink's shard), stall cells by the sender's compute
	// goroutine, so no cell is ever raced.
	counts []int64
	// creditDelta is the net per-site credit change applied by faults
	// (drops and credit loss -1, duplication +1); the post-drain credit
	// conservation check offsets link capacities by it. Same single-writer
	// discipline as counts is NOT available here (drop is written at
	// commit, loss/dup too — same goroutine, fine).
	creditDelta []int32
	// stallMark is the most recent stall-window start already counted per
	// site, so a window is tallied once however often senders query it.
	stallMark []int64

	// mu guards the impacted set, which is only touched when a fault
	// actually fires (rare at campaign rates).
	mu       sync.Mutex
	impacted map[uint64]struct{}

	// hard is the permanent-fault schedule, nil unless the spec declares
	// dead links (see hard.go) — the hot paths pay one pointer test.
	hard *hardState
}

// NewInjector returns an unbound injector for the spec. The spec must have
// passed Validate; NewInjector panics otherwise so a campaign can't silently
// run with out-of-range rates.
func NewInjector(spec Spec) *Injector {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	return &Injector{spec: spec, impacted: make(map[uint64]struct{})}
}

// Spec returns the campaign spec the injector was built from.
func (inj *Injector) Spec() Spec { return inj.spec }

// HardArmed reports whether the campaign declares any dead link. The
// network probes this before construction to decide whether to pay for
// topology binding and the reconfiguration observer.
func (inj *Injector) HardArmed() bool { return inj.spec.HasHardFaults() }

// BindSites is called by the owning network with its channel-site count.
// An injector serves exactly one network — rebinding panics, because the
// per-site state would silently mix two simulations.
func (inj *Injector) BindSites(n int) {
	if inj.sites != 0 || inj.counts != nil {
		panic("fault: injector already bound to a network")
	}
	if n <= 0 {
		panic("fault: BindSites with no sites")
	}
	inj.sites = n
	inj.counts = make([]int64, n*NumKinds)
	inj.creditDelta = make([]int32, n)
	inj.stallMark = make([]int64, n)
	for i := range inj.stallMark {
		inj.stallMark[i] = -1 << 62
	}
}

// mix is a splitmix64-style avalanche of the decision coordinates; the
// result is uniform enough that the top 53 bits serve as a [0,1) draw.
func mix(a, b, c, d uint64) uint64 {
	z := a
	z ^= b * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= c * 0x94D049BB133111EB
	z = (z ^ (z >> 27)) * 0x2545F4914F6CDD1D
	z ^= d * 0xD6E8FEB86659FD93
	z = (z ^ (z >> 31)) * 0x9E3779B97F4A7C15
	return z ^ (z >> 29)
}

// Decision salts keep the per-kind draws independent at the same site+cycle.
const (
	saltFlip   = 0x464C4950 // "FLIP"
	saltDrop   = 0x44524F50 // "DROP"
	saltStall  = 0x5354414C // "STAL"
	saltCredit = 0x43524454 // "CRDT"
)

func (inj *Injector) roll(salt uint64, site int32, cycle int64, k uint64) float64 {
	h := mix(inj.spec.Seed^salt, uint64(site), uint64(cycle), k)
	return float64(h>>11) * 0x1p-53
}

func (inj *Injector) count(site int32, kind Kind) {
	inj.counts[int(site)*NumKinds+int(kind)]++
}

// impactFlit records every packet whose delivery a fault may corrupt or
// prevent: the flit's own packet, or — for an XOR-encoded flit — every
// constituent packet (a superset: later chain members often still recover,
// and a recovered-anyway packet in the set is harmless because the delivery
// oracle only consults it for packets that went missing).
func (inj *Injector) impactFlit(f *noc.Flit) {
	inj.mu.Lock()
	if f.Encoded {
		for _, p := range f.Parts {
			if p.Packet != nil { // a released part is scrubbed
				inj.impacted[p.ID] = struct{}{}
			}
		}
	} else if f.Packet != nil {
		inj.impacted[f.ID] = struct{}{}
	}
	inj.mu.Unlock()
}

// TamperFlit implements noc.Tamperer. At most one fault fires per flit,
// drop taking priority over flip so the two rates stay independent knobs.
func (inj *Injector) TamperFlit(site int32, cycle int64, f *noc.Flit) bool {
	if inj.siteDead(site, cycle) {
		// A permanently dead channel eats whatever was staged across it:
		// the in-flight flit of a mid-run kill is an accounted injector
		// loss, not a mystery disappearance.
		inj.impactFlit(f)
		inj.count(site, Drop)
		inj.creditDelta[site]--
		return true
	}
	s := &inj.spec
	if !s.active(cycle) {
		return false
	}
	if s.Drop > 0 && inj.roll(saltDrop, site, cycle, 0) < s.Drop {
		inj.impactFlit(f)
		inj.count(site, Drop)
		inj.creditDelta[site]--
		return true
	}
	if s.BitFlip > 0 && inj.roll(saltFlip, site, cycle, 0) < s.BitFlip {
		bit := mix(s.Seed^saltFlip, uint64(site), uint64(cycle), 1) & 63
		f.Raw ^= 1 << bit
		inj.impactFlit(f)
		inj.count(site, BitFlip)
	}
	return false
}

// TamperCredits implements noc.Tamperer: each staged return independently
// survives, is lost, or is duplicated.
func (inj *Injector) TamperCredits(site int32, cycle int64, n int) int {
	s := &inj.spec
	if !s.active(cycle) || (s.CreditLoss == 0 && s.CreditDup == 0) {
		return n
	}
	out := n
	for k := 0; k < n; k++ {
		r := inj.roll(saltCredit, site, cycle, uint64(k))
		switch {
		case r < s.CreditLoss:
			out--
			inj.count(site, CreditLoss)
			inj.creditDelta[site]--
		case r < s.CreditLoss+s.CreditDup:
			out++
			inj.count(site, CreditDup)
			inj.creditDelta[site]++
		}
	}
	return out
}

// LinkStalled implements noc.Tamperer: the channel is stalled at cycle t if
// any of the last StallCycles cycles started a stall window. The window
// scan keeps the decision a pure function of (site, cycle) — no mutable
// countdown state that call order could skew.
func (inj *Injector) LinkStalled(site int32, cycle int64) bool {
	if inj.siteDead(site, cycle) {
		return true // a dead channel is an unending stall
	}
	s := &inj.spec
	if s.Stall <= 0 {
		return false
	}
	dur := s.stallCycles()
	lo := cycle - dur + 1
	if lo < 0 {
		lo = 0
	}
	for t := lo; t <= cycle; t++ {
		if !s.active(t) {
			continue
		}
		if inj.roll(saltStall, site, t, 0) < s.Stall {
			// Tally each window start once; stallMark has a single writer
			// (the channel's unique sender).
			if inj.stallMark[site] < t {
				inj.stallMark[site] = t
				inj.count(site, Stall)
			}
			return true
		}
	}
	return false
}

// CreditDelta returns the net credit change faults applied at a site; the
// conservation check expects Credits() == Capacity()+delta after a full
// drain.
func (inj *Injector) CreditDelta(site int) int {
	if inj.creditDelta == nil {
		return 0
	}
	return int(inj.creditDelta[site])
}

// Impacted reports whether a fault fired that may corrupt or prevent the
// delivery of packet id; the delivery oracle treats missing impacted
// packets as accounted-for rather than lost.
func (inj *Injector) Impacted(id uint64) bool {
	inj.mu.Lock()
	_, ok := inj.impacted[id]
	inj.mu.Unlock()
	return ok
}

// Leaky reports whether a fired fault may leak pooled flit objects (drops
// discard encoded constituents), which disables the arena-exactness check.
func (inj *Injector) Leaky() bool {
	return inj.KindTotal(Drop) > 0
}

// KindTotal returns the number of faults of one kind fired so far.
func (inj *Injector) KindTotal(kind Kind) int64 {
	var n int64
	for site := 0; site < inj.sites; site++ {
		n += inj.counts[site*NumKinds+int(kind)]
	}
	return n
}

// Totals returns the per-kind fault counts.
func (inj *Injector) Totals() [NumKinds]int64 {
	var t [NumKinds]int64
	for k := Kind(0); k < NumKinds; k++ {
		t[k] = inj.KindTotal(k)
	}
	return t
}

// Total returns the overall number of faults fired.
func (inj *Injector) Total() int64 {
	var n int64
	for _, c := range inj.counts {
		n += c
	}
	return n
}

// ImpactedCount returns how many distinct packets were marked impacted.
func (inj *Injector) ImpactedCount() int {
	inj.mu.Lock()
	n := len(inj.impacted)
	inj.mu.Unlock()
	return n
}
