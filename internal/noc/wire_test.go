package noc

import (
	"testing"
	"testing/quick"
)

func singleFlit(id uint64) *Flit {
	p := NewPacket(id, 1, 2, 1, 0, 0)
	return NewFlit(p, 0)
}

// TestEncodeDecodePair checks the fundamental identity (A^B)^B = A.
func TestEncodeDecodePair(t *testing.T) {
	a, b := singleFlit(1), singleFlit(2)
	enc := Encode([]*Flit{a, b})
	if !enc.Encoded {
		t.Fatal("Encode did not mark the flit encoded")
	}
	if enc.Raw != a.Raw^b.Raw {
		t.Fatalf("raw image %#x, want %#x", enc.Raw, a.Raw^b.Raw)
	}
	got, err := Decode(enc, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("decoded %v, want A", got)
	}
}

// TestDecodePaperProperty checks (A^B^C) ^ (B^C) = A, the exact identity
// quoted in §2.2.
func TestDecodePaperProperty(t *testing.T) {
	a, b, c := singleFlit(1), singleFlit(2), singleFlit(3)
	e1 := Encode([]*Flit{a, b, c})
	e2 := Encode([]*Flit{b, c})
	got, err := Decode(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("decoded %v, want A", got)
	}
}

// TestChainProperty is the property-based version: for any collision set of
// 2..5 packets and any service order, the narrowing chain E_k = XOR of the
// not-yet-granted set decodes, pairwise-contiguously, to the winners in
// grant order.
func TestChainProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8, permSeed uint64) bool {
		size := int(sizeRaw%4) + 2 // 2..5 colliders
		flits := make([]*Flit, size)
		for i := range flits {
			flits[i] = singleFlit(seed + uint64(i) + 1)
		}
		// Service order: a permutation derived from permSeed.
		order := make([]int, size)
		for i := range order {
			order[i] = i
		}
		s := permSeed
		for i := size - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}

		// Build the wire sequence the switch would emit: each cycle the
		// remaining colliders superimpose, then one is granted and removed.
		remaining := append([]*Flit(nil), flits...)
		var wire []*Flit
		for _, winner := range order {
			var cur []*Flit
			for _, fl := range remaining {
				if fl != nil {
					cur = append(cur, fl)
				}
			}
			if len(cur) == 1 {
				wire = append(wire, cur[0])
			} else {
				wire = append(wire, Encode(cur))
			}
			remaining[winner] = nil
		}

		// Decode pairwise-contiguously and compare with grant order.
		for k := 0; k+1 < len(wire); k++ {
			got, err := Decode(wire[k], wire[k+1])
			if err != nil {
				return false
			}
			if got != flits[order[k]] {
				return false
			}
		}
		// The final wire flit is the last winner, unencoded.
		last := wire[len(wire)-1]
		return !last.Encoded && last == flits[order[size-1]]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeDetectsNonContiguous verifies the decoder flags protocol
// violations: XORing non-adjacent chain members whose difference is not a
// single flit must fail.
func TestDecodeDetectsNonContiguous(t *testing.T) {
	a, b, c := singleFlit(1), singleFlit(2), singleFlit(3)
	e1 := Encode([]*Flit{a, b, c})
	if _, err := Decode(e1, c); err == nil {
		t.Error("decoding a 2-flit difference should fail")
	}
	if _, err := Decode(e1, e1); err == nil {
		t.Error("decoding identical images should fail")
	}
}

// TestDecodeDetectsCorruption verifies the raw-image check catches payload
// corruption that set algebra alone would miss.
func TestDecodeDetectsCorruption(t *testing.T) {
	a, b := singleFlit(1), singleFlit(2)
	enc := Encode([]*Flit{a, b})
	enc.Raw ^= 0x4 // single bit flip on the wire
	if _, err := Decode(enc, b); err == nil {
		t.Error("bit flip not detected")
	}
}

// TestDecodeRejectsUnownedConstituent pins the typed failure for a register
// whose constituent lost its packet — released and scrubbed, or recycled as
// an encoded flit, after an upstream drop. Decode keys on packet IDs, so
// this used to be a nil dereference.
func TestDecodeRejectsUnownedConstituent(t *testing.T) {
	a, b := singleFlit(1), singleFlit(2)
	scrubbed := Encode([]*Flit{a, b})
	a.Packet = nil
	if _, err := Decode(scrubbed, b); err == nil {
		t.Error("register with a scrubbed constituent decoded")
	}
	if _, err := Decode(b, scrubbed); err == nil {
		t.Error("head with a scrubbed constituent decoded")
	}
	c, d := singleFlit(3), singleFlit(4)
	recycled := Encode([]*Flit{c, d})
	*c = Flit{Encoded: true, Parts: []*Flit{d}}
	if _, err := Decode(recycled, d); err == nil {
		t.Error("register with a constituent recycled as an encoded flit decoded")
	}
	if got := recycled.String(); got == "" {
		t.Error("String of a flit with an unowned part is empty")
	}
}

// TestEncodeRejectsMultiFlit verifies the §2.7 invariant that multi-flit
// packets are never superimposed.
func TestEncodeRejectsMultiFlit(t *testing.T) {
	p := NewPacket(9, 1, 2, 3, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("Encode of a multi-flit head did not panic")
		}
	}()
	Encode([]*Flit{NewFlit(p, 0), singleFlit(1)})
}

// TestPayloadWordDeterminism checks payload derivation is stable and
// position-sensitive.
func TestPayloadWordDeterminism(t *testing.T) {
	w1 := PayloadWord(7, 3, 4, 0)
	w2 := PayloadWord(7, 3, 4, 0)
	if w1 != w2 {
		t.Fatal("PayloadWord not deterministic")
	}
	if PayloadWord(7, 3, 4, 1) == w1 {
		t.Error("payload words should differ by flit position")
	}
	if PayloadWord(8, 3, 4, 0) == w1 {
		t.Error("payload words should differ by packet id")
	}
}

// TestFlitKinds checks head/tail/multi-flit classification.
func TestFlitKinds(t *testing.T) {
	p := NewPacket(1, 0, 1, 3, 0, 0)
	h, b, tl := NewFlit(p, 0), NewFlit(p, 1), NewFlit(p, 2)
	if !h.Head() || h.Tail() || !h.MultiFlit() {
		t.Errorf("head flit misclassified: %v", h)
	}
	if b.Head() || b.Tail() {
		t.Errorf("body flit misclassified: %v", b)
	}
	if tl.Head() || !tl.Tail() {
		t.Errorf("tail flit misclassified: %v", tl)
	}
	s := singleFlit(2)
	if !s.Head() || !s.Tail() || s.MultiFlit() {
		t.Errorf("single flit misclassified: %v", s)
	}
}
