// Contract tests for the quiescence API: a component that goes quiet while
// still holding work is the silent-divergence bug class, and the SetOracle
// debug mode must catch every such component the fast path would mask.
package sim

import (
	"strings"
	"testing"
)

// latent goes quiet while still holding work: its Quiet lies, so every
// cycle it is skipped is a state change the fast path never makes.
type latent struct{ val int }

func (l *latent) Compute(cycle int64) {}
func (l *latent) Commit(cycle int64)  { l.val++ }
func (l *latent) Quiet() bool         { return true }

// TestContractFastPathMasksLiar documents the failure mode the oracle
// exists for: without it, a component quiescing with latent work silently
// diverges from always-active evaluation — no panic, just wrong state.
func TestContractFastPathMasksLiar(t *testing.T) {
	k := NewKernel()
	l := &latent{}
	k.Add(l)
	k.Run(10)
	if l.val != 1 {
		t.Fatalf("liar evaluated %d times on the fast path, expected the silent divergence (1)", l.val)
	}
}

// mustOracleViolation runs fn and requires it to panic with the kernel's
// quiescence-contract violation, returning the payload.
func mustOracleViolation(t *testing.T, fn func()) (v oracleViolation) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oracle did not catch the contract violation")
		}
		ov, ok := r.(oracleViolation)
		if !ok {
			t.Fatalf("panic payload %T (%v), want oracleViolation", r, r)
		}
		v = ov
	}()
	fn()
	return
}

// TestContractOracleCatchesLatentQuiet is the oracle's core guarantee: a
// component that mutates state while parked panics on the first parked
// cycle, naming the component.
func TestContractOracleCatchesLatentQuiet(t *testing.T) {
	k := NewKernel()
	k.Add(&quiescer{pending: 2})
	l := &latent{}
	k.Add(l)
	k.SetOracle(func(h Handle) uint64 {
		if h == 1 {
			return uint64(l.val)
		}
		return 0
	})
	v := mustOracleViolation(t, func() { k.Run(10) })
	if v.comp != 1 || v.cycle != 1 {
		t.Errorf("violation = component %d cycle %d, want component 1 cycle 1", v.comp, v.cycle)
	}
	if !strings.Contains(v.Error(), "quiescence contract violation") {
		t.Errorf("violation message %q does not name the contract", v.Error())
	}
}

// TestContractOraclePassesHonestComponents is the no-false-positive side:
// honest quiescence, including a component parked and woken again, runs
// clean under the oracle with the same observable results as the fast path.
func TestContractOraclePassesHonestComponents(t *testing.T) {
	run := func(oracle bool) (int, int) {
		k := NewKernel()
		q := &quiescer{pending: 3}
		c := &counter{t: t}
		hq := k.Add(q)
		k.Add(c)
		if oracle {
			k.SetOracle(func(h Handle) uint64 {
				if h == hq {
					return uint64(q.pending)
				}
				return uint64(c.val)
			})
		}
		k.Run(20)
		q.pending = 2
		k.Wake(hq)
		k.Run(20)
		return q.pending, c.val
	}
	fastQ, fastC := run(false)
	gotQ, gotC := run(true)
	if gotQ != 0 || gotQ != fastQ || gotC != fastC {
		t.Fatalf("oracle run ended at pending %d / counter %d, fast path at %d / %d", gotQ, gotC, fastQ, fastC)
	}
}

// TestContractOracleSerialOnly pins the mode restriction: arming the oracle
// on a sharded kernel is a programming error, caught loudly.
func TestContractOracleSerialOnly(t *testing.T) {
	k := NewKernel()
	shardOf := make([]int, 8)
	for i := 0; i < 8; i++ {
		k.Add(&quiescer{pending: 1})
		shardOf[i] = i % 2
	}
	k.SetSharding(2, shardOf)
	defer k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("SetOracle on a sharded kernel did not panic")
		}
	}()
	k.SetOracle(func(h Handle) uint64 { return 0 })
}
