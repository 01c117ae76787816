package facts_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := facts.NewStore()
	s.Record(1, nil, 0, true, num(42))
	s.Record(2, ctx(10, 0, 20, 1), 3, false, str("x"))
	s.Record(3, ctx(5, 2), 0, true, facts.Snapshot{Kind: facts.VFunction, FnIndex: 7})
	s.Record(4, nil, 0, true, facts.Snapshot{Kind: facts.VObject, Alloc: 9})
	// Repeated observations: the hit count travels with the fact.
	s.Record(1, nil, 0, true, num(42))
	s.Record(1, nil, 0, true, num(42))

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := facts.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != s.Len() {
		t.Fatalf("decoded %d facts, want %d", d.Len(), s.Len())
	}
	for _, f := range s.All() {
		g, ok := d.Lookup(f.Instr, f.Ctx, f.Seq)
		if !ok {
			t.Errorf("fact %d missing after round trip", f.Instr)
			continue
		}
		if g.Det != f.Det || !g.Val.Equal(f.Val) || g.Hits != f.Hits {
			t.Errorf("fact %d changed: %+v vs %+v", f.Instr, g, f)
		}
	}
}

// TestRestrictKeepsHits pins Restrict: facts below the limit keep their
// join state, value and hit count, in recording order; the rest go.
func TestRestrictKeepsHits(t *testing.T) {
	s := facts.NewStore()
	s.Record(5, ctx(1, 0), 0, true, num(1))
	s.Record(9, nil, 0, true, num(2))
	s.Record(5, ctx(1, 0), 0, true, num(1))
	s.Record(3, nil, 1, false, str("y"))
	r := s.Restrict(8)
	if r.Len() != 2 || r.MaxSeq != s.MaxSeq {
		t.Fatalf("restricted store has %d facts (MaxSeq %d), want 2 (MaxSeq %d)", r.Len(), r.MaxSeq, s.MaxSeq)
	}
	all := r.All()
	if all[0].Instr != 5 || all[0].Hits != 2 || !all[0].Det || all[1].Instr != 3 || all[1].Hits != 1 || all[1].Det {
		t.Fatalf("restricted facts %+v %+v, want instr 5 (2 hits, det) then instr 3 (1 hit, indet)", *all[0], *all[1])
	}
}

// Round-trip property over arbitrary primitive facts.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(instr uint16, site uint16, seq uint8, det bool, n float64, s string, kind uint8) bool {
		store := facts.NewStore()
		var snap facts.Snapshot
		switch kind % 4 {
		case 0:
			snap = facts.Snapshot{Kind: facts.VNumber, Num: n}
		case 1:
			snap = facts.Snapshot{Kind: facts.VString, Str: s}
		case 2:
			snap = facts.Snapshot{Kind: facts.VBool, Bool: det}
		default:
			snap = facts.Snapshot{Kind: facts.VUndefined}
		}
		c := ctx(int(site), 0)
		store.Record(ir.ID(instr), c, int(seq), det, snap)
		var buf bytes.Buffer
		if err := store.Encode(&buf); err != nil {
			return false
		}
		back, err := facts.Decode(&buf)
		if err != nil {
			return false
		}
		g, ok := back.Lookup(ir.ID(instr), c, int(seq))
		return ok && g.Det == det && g.Val.Equal(snap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := facts.Decode(bytes.NewBufferString("{not json")); err == nil {
		t.Error("expected decode error")
	}
}

func TestGeneralize(t *testing.T) {
	s := facts.NewStore()
	// Same value under two contexts: generalizes determinate.
	s.Record(1, ctx(10, 0), 0, true, num(5))
	s.Record(1, ctx(20, 0), 0, true, num(5))
	// Different values under two contexts: generalizes indeterminate.
	s.Record(2, ctx(10, 0), 0, true, str("a"))
	s.Record(2, ctx(20, 0), 0, true, str("b"))
	// Indeterminate anywhere: indeterminate.
	s.Record(3, ctx(10, 0), 0, false, num(0))

	g := s.Generalize()
	if g.Len() != 3 {
		t.Fatalf("generalized %d points, want 3", g.Len())
	}
	if f, ok := g.Lookup(1, nil, 0); !ok || !f.Det || f.Val.Num != 5 {
		t.Errorf("point 1: %+v", f)
	}
	if f, _ := g.Lookup(2, nil, 0); f.Det {
		t.Error("point 2 must generalize to indeterminate")
	}
	if f, _ := g.Lookup(3, nil, 0); f.Det {
		t.Error("point 3 must stay indeterminate")
	}
}

func TestRestrict(t *testing.T) {
	s := facts.NewStore()
	s.Record(5, nil, 0, true, num(1))
	s.Record(50, nil, 0, true, num(2))
	r := s.Restrict(10)
	if r.Len() != 1 {
		t.Fatalf("restricted to %d facts, want 1", r.Len())
	}
	if _, ok := r.Lookup(50, nil, 0); ok {
		t.Error("fact beyond the limit survived")
	}
}

// TestEncodeNonFiniteNumbers: JSON has no literal for NaN or the infinities,
// and encoding/json errors out on them — a store holding a 0/0 fact must
// still round-trip (they travel in the "nums" field).
func TestEncodeNonFiniteNumbers(t *testing.T) {
	s := facts.NewStore()
	s.Record(1, nil, 0, true, facts.Snapshot{Kind: facts.VNumber, Num: math.NaN()})
	s.Record(2, nil, 0, true, facts.Snapshot{Kind: facts.VNumber, Num: math.Inf(1)})
	s.Record(3, nil, 0, false, facts.Snapshot{Kind: facts.VNumber, Num: math.Inf(-1)})
	s.Record(4, nil, 0, true, facts.Snapshot{Kind: facts.VNumber, Num: math.Copysign(0, -1)})

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	d, err := facts.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	check := func(instr int, want func(float64) bool, desc string) {
		f, ok := d.Lookup(ir.ID(instr), nil, 0)
		if !ok {
			t.Fatalf("fact %d missing after round trip", instr)
		}
		if !want(f.Val.Num) {
			t.Errorf("fact %d: got %v, want %s", instr, f.Val.Num, desc)
		}
	}
	check(1, math.IsNaN, "NaN")
	check(2, func(n float64) bool { return math.IsInf(n, 1) }, "+Inf")
	check(3, func(n float64) bool { return math.IsInf(n, -1) }, "-Inf")
	check(4, func(n float64) bool { return n == 0 && math.Signbit(n) }, "-0")
}
