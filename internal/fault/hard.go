// Hard (permanent) faults: inter-router links scheduled dead by the spec.
//
// A hard fault is literal spec data, resolved to channel sites once in
// BindTopology; from then on the hard-fault schedule is immutable, so a
// degradation campaign replays bit-identically from its Spec at any shard
// count and the hot paths read it without synchronization. A dead site
// refuses traffic exactly like an infinite stall and drops anything already
// staged across it (counted and impact-marked like a transient drop), while
// the owning network reacts to fault-set changes by rebuilding routes (see
// internal/network's reconfiguration epoch).
package fault

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/noc"
	"repro/internal/routing"
)

// DeadLink declares the inter-router link between routers A and B
// permanently dead from cycle At on (At 0 = dead from the start). Both
// directions of the channel pair die: the physical model is a severed
// link that neither carries flits nor returns credits.
type DeadLink struct {
	A  noc.NodeID `json:"a"`
	B  noc.NodeID `json:"b"`
	At int64      `json:"at_cycle,omitempty"`
}

// HasHardFaults reports whether the spec schedules any dead link.
func (s Spec) HasHardFaults() bool { return len(s.DeadLinks) > 0 }

func (s Spec) validateHard() error {
	for _, l := range s.DeadLinks {
		if l.A < 0 || l.B < 0 || l.A == l.B {
			return fmt.Errorf("%w: dead link %d-%d", ErrBadSpec, int(l.A), int(l.B))
		}
		if l.At < 0 {
			return fmt.Errorf("%w: dead link %d-%d at negative cycle %d", ErrBadSpec, int(l.A), int(l.B), l.At)
		}
	}
	return nil
}

func (s Spec) hardString() string {
	if !s.HasHardFaults() {
		return ""
	}
	out := "dead=["
	for i, l := range s.DeadLinks {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("L%d-%d@%d", int(l.A), int(l.B), l.At)
	}
	return out + "]"
}

// aliveForever marks a site with no scheduled death.
const aliveForever = math.MaxInt64

// deadLink is one normalized (a < b) link with its earliest death cycle.
type deadLink struct {
	ends [2]noc.NodeID
	at   int64
}

// hardState is the Injector's permanent-fault schedule, nil when the spec
// declares none — the hot paths test one pointer. It is written once, by
// BindTopology, and only read after.
type hardState struct {
	// deadAt[site] is the first cycle the site is dead, aliveForever if
	// never.
	deadAt []int64
	// links is every dead link, deduplicated to its earliest death cycle,
	// in map order (FaultSet canonicalizes).
	links []deadLink
	// scheduled is the sorted, distinct list of kill cycles after 0; the
	// network's epoch observer walks it with a cursor.
	scheduled []int64
}

// BindTopology attaches the injector to the owning network's topology: sys
// and the per-site link table in site order. Must follow BindSites with a
// matching site count; a second bind panics. Scheduled kills are resolved
// to sites here — a spec naming non-adjacent link endpoints panics, because
// the campaign would silently not degrade.
func (inj *Injector) BindTopology(sys noc.System, sites []noc.LinkSite) {
	if inj.sites == 0 {
		panic("fault: BindTopology before BindSites")
	}
	if len(sites) != inj.sites {
		panic(fmt.Sprintf("fault: BindTopology with %d sites, bound to %d", len(sites), inj.sites))
	}
	if inj.hard != nil {
		panic("fault: injector topology already bound")
	}
	if !inj.spec.HasHardFaults() {
		return
	}
	dead := make(map[[2]noc.NodeID]int64)
	for _, dl := range inj.spec.DeadLinks {
		ends := normalize(dl.A, dl.B)
		if int(ends[1]) >= sys.Routers() || sys.Grid.Hops(ends[0], ends[1]) != 1 {
			panic(fmt.Sprintf("fault: dead link %d-%d is not an adjacent router pair of the %dx%d grid",
				int(dl.A), int(dl.B), sys.Grid.Width, sys.Grid.Height))
		}
		if at, ok := dead[ends]; !ok || dl.At < at {
			dead[ends] = dl.At
		}
	}
	h := &hardState{deadAt: make([]int64, len(sites))}
	for i, ls := range sites {
		h.deadAt[i] = aliveForever
		if at, ok := dead[normalize(ls.Src, ls.Dst)]; ok { // an interface site's -1 end matches no link
			h.deadAt[i] = at
		}
	}
	for ends, at := range dead {
		h.links = append(h.links, deadLink{ends: ends, at: at})
		if at > 0 {
			h.scheduled = append(h.scheduled, at)
		}
	}
	slices.Sort(h.scheduled)
	h.scheduled = slices.Compact(h.scheduled)
	inj.hard = h
}

// normalize orders a link's endpoints low to high.
func normalize(a, b noc.NodeID) [2]noc.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]noc.NodeID{a, b}
}

// siteDead reports whether a site is permanently dead at cycle.
func (inj *Injector) siteDead(site int32, cycle int64) bool {
	h := inj.hard
	return h != nil && cycle >= h.deadAt[site]
}

// FaultSet returns the canonical set of links permanently dead at cycle —
// the key the routing layer rebuilds tables from. It is a pure function of
// the spec; the zero set is returned when no hard faults are armed.
func (inj *Injector) FaultSet(cycle int64) routing.FaultSet {
	h := inj.hard
	if h == nil {
		return routing.FaultSet{}
	}
	var links [][2]noc.NodeID
	for _, l := range h.links {
		if l.at <= cycle {
			links = append(links, l.ends)
		}
	}
	return routing.NewFaultSet(nil, links)
}

// ScheduledKillCycles returns the sorted cycles (> 0) at which spec-
// scheduled kills take effect; the owning network's epoch observer walks
// this with a cursor. Kills at cycle 0 are already in FaultSet(0).
func (inj *Injector) ScheduledKillCycles() []int64 {
	if inj.hard == nil {
		return nil
	}
	return inj.hard.scheduled
}

// MarkImpacted records a packet whose delivery a permanent fault may have
// prevented (the reconfiguration epoch flushes it from the network); the
// delivery oracle then accounts it instead of reporting a false loss.
func (inj *Injector) MarkImpacted(id uint64) {
	inj.mu.Lock()
	inj.impacted[id] = struct{}{}
	inj.mu.Unlock()
}

// ResetSiteAccounting zeroes the per-site credit deltas. The reconfiguration
// epoch calls it after restoring every link's credits to capacity, so the
// post-drain conservation check measures only post-epoch transient faults.
func (inj *Injector) ResetSiteAccounting() {
	for i := range inj.creditDelta {
		inj.creditDelta[i] = 0
	}
}
