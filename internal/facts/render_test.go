package facts_test

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// renderModule compiles a two-line program and returns it with the ID of
// its call instruction (line 2) and of the return's operand load (line 1).
func renderModule(t *testing.T) (mod *ir.Module, call, load ir.ID) {
	t.Helper()
	mod = ir.MustCompile("t.js", "function f(a) { return a; }\nvar y = f(1);")
	call, load = -1, -1
	mod.ForEachInstr(func(in ir.Instr, _ *ir.Function) {
		switch in.(type) {
		case *ir.Call:
			call = in.IID()
		case *ir.LoadVar:
			load = in.IID()
		}
	})
	if call < 0 || load < 0 {
		t.Fatal("test program lacks a call or a variable load")
	}
	return mod, call, load
}

func TestRendererFallbacks(t *testing.T) {
	mod, call, load := renderModule(t)
	missing := ir.ID(mod.NumInstrs + 5)
	cases := []struct {
		name      string
		f         facts.Fact
		want, ctx string
	}{
		{"empty context", facts.Fact{Instr: load, Det: true, Val: num(1)},
			"[[ r0 = var a@0.0 @1:24 ]] · = 1", ""},
		{"empty context, later occurrence", facts.Fact{Instr: load, Seq: 2, Val: num(1)},
			"[[ r0 = var a@0.0 @1:24 ]] · (occ 2) = ?", "(occ 2)"},
		{"known site", facts.Fact{Instr: load, Ctx: ctx(int(call), 0), Seq: 1, Det: true, Val: num(1)},
			"[[ r0 = var a@0.0 @1:24 ]] L2_0 (occ 1) = 1", "L2_0(occ 1)"},
		{"missing point", facts.Fact{Instr: missing, Det: true, Val: str("x")},
			"[[ #" + strconv.Itoa(int(missing)) + " ]] · = \"x\"", ""},
		{"missing call site", facts.Fact{Instr: load, Ctx: ctx(int(call), 3, int(missing), 4), Det: true, Val: num(1)},
			"[[ r0 = var a@0.0 @1:24 ]] L2_3→" + strconv.Itoa(int(missing)) + "_4 = 1", "L2_3→"},
	}
	for _, tc := range cases {
		r := facts.NewRenderer(mod)
		if got := string(r.AppendFact(nil, &tc.f)); got != tc.want {
			t.Errorf("%s: AppendFact = %q, want %q", tc.name, got, tc.want)
		}
		if got := facts.RenderFact(mod, &tc.f); got != tc.want {
			t.Errorf("%s: RenderFact = %q, want %q", tc.name, got, tc.want)
		}
		if got := r.Context(&tc.f); got != tc.ctx {
			t.Errorf("%s: Context = %q, want %q", tc.name, got, tc.ctx)
		}
	}

	r := facts.NewRenderer(mod)
	if text, line, col := r.Point(missing); text != "" || line != 0 || col != 0 {
		t.Errorf("Point(missing) = %q, %d, %d, want empty", text, line, col)
	}
	if text, line, col := r.Point(call); text == "" || line != 2 || col == 0 {
		t.Errorf("Point(call) = %q, %d, %d", text, line, col)
	}
	if got := string(r.AppendPoint(nil, -1)); got != "#-1" {
		t.Errorf("AppendPoint(-1) = %q", got)
	}
}

func TestRenderEmptyStore(t *testing.T) {
	mod, _, _ := renderModule(t)
	s := facts.NewStore()
	if fs := s.Sorted(); len(fs) != 0 {
		t.Errorf("empty store sorted to %d facts", len(fs))
	}
	if got := facts.Render(mod, s.Sorted()); got != "" {
		t.Errorf("Render(empty) = %q, want empty", got)
	}
}

// TestRendererContextMemo checks that the context memo keys on the whole
// (Context, Seq): facts sharing one clone but not the occurrence, or one
// call stack in two different clones, still render their own text.
func TestRendererContextMemo(t *testing.T) {
	mod, call, load := renderModule(t)
	shared := ctx(int(call), 0, int(call), 1)
	r := facts.NewRenderer(mod)
	for _, tc := range []struct {
		f    facts.Fact
		want string
	}{
		{facts.Fact{Instr: load, Ctx: shared}, "L2_0→L2_1"},
		{facts.Fact{Instr: load, Ctx: shared, Seq: 3}, "L2_0→L2_1(occ 3)"},
		{facts.Fact{Instr: load, Ctx: shared[:1]}, "L2_0"},
		{facts.Fact{Instr: load, Ctx: ctx(int(call), 0, int(call), 1)}, "L2_0→L2_1"},
		{facts.Fact{Instr: load, Ctx: ctx(int(call), 0, int(call), 2)}, "L2_0→L2_2"},
		{facts.Fact{Instr: load, Ctx: shared}, "L2_0→L2_1"},
	} {
		if got := r.Context(&tc.f); got != tc.want {
			t.Errorf("Context(%v, seq %d) = %q, want %q", tc.f.Ctx, tc.f.Seq, got, tc.want)
		}
	}
}

func TestSnapshotRendering(t *testing.T) {
	cases := []struct {
		v    facts.Snapshot
		want string
	}{
		{facts.Snapshot{Kind: facts.VUndefined}, "undefined"},
		{facts.Snapshot{Kind: facts.VNull}, "null"},
		{facts.Snapshot{Kind: facts.VBool, Bool: true}, "true"},
		{facts.Snapshot{Kind: facts.VBool}, "false"},
		{num(math.NaN()), "NaN"},
		{num(math.Inf(1)), "+Inf"},
		{num(math.Inf(-1)), "-Inf"},
		{num(math.Copysign(0, -1)), "-0"},
		{num(1e21), "1e+21"},
		{num(1e-7), "1e-07"},
		{num(123456), "123456"},
		{num(0.1), "0.1"},
		{str("q\"b\\s\nlt<amp&ls\u2028é☃"), `"q\"b\\s\nlt<amp&ls\u2028é☃"`},
		{facts.Snapshot{Kind: facts.VFunction, FnIndex: 3}, "fn#3"},
		{facts.Snapshot{Kind: facts.VFunction, Native: "floor"}, "native:floor"},
		{facts.Snapshot{Kind: facts.VObject, Alloc: 7}, "obj#7"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if got := string(tc.v.AppendTo([]byte("x="))); got != "x="+tc.want {
			t.Errorf("AppendTo = %q, want %q", got, "x="+tc.want)
		}
	}
}

// sortedRef orders facts the way Sorted promises, rendering each context
// key afresh: instruction, then context key, then occurrence.
func sortedRef(fs []*facts.Fact) []*facts.Fact {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if ka, kb := a.Ctx.Key(), b.Ctx.Key(); ka != kb {
			return ka < kb
		}
		return a.Seq < b.Seq
	})
	return fs
}

func checkSorted(t *testing.T, s *facts.Store) {
	t.Helper()
	want := sortedRef(s.All())
	got := s.Sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted returned %d facts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d|%s|%d, want %d|%s|%d", i,
				got[i].Instr, got[i].Ctx.Key(), got[i].Seq, want[i].Instr, want[i].Ctx.Key(), want[i].Seq)
		}
	}
}

// TestSortedOrder checks Sorted against the reference sort over the paths
// the store takes: one Context slice passed again and again, interleaved
// with others and with fresh equal copies; call sites and instructions
// where numeric and text order differ (9 < 10 < 100, but "10" < "100" <
// "9"); occurrences beyond MaxSeq; and Merge of stores whose contexts
// overlap.
func TestSortedOrder(t *testing.T) {
	sites := []ir.ID{1, 9, 10, 11, 90, 100, 1000}
	instrs := []ir.ID{0, 1, 2, 9, 10, 11, 99, 100, 101, 1000}
	rng := rand.New(rand.NewSource(1))
	var pool []facts.Context
	for range 40 {
		var c facts.Context
		for d := rng.Intn(4); d > 0; d-- {
			c = append(c, facts.ContextEntry{Site: sites[rng.Intn(len(sites))], Seq: rng.Intn(12)})
		}
		pool = append(pool, c)
	}
	fill := func(s *facts.Store, n int) {
		for range n {
			c := pool[rng.Intn(len(pool))]
			for run := rng.Intn(5); run >= 0; run-- {
				if rng.Intn(4) == 0 {
					c = c.Clone() // a fresh copy equal to the slice just passed
				}
				s.Record(instrs[rng.Intn(len(instrs))], c, rng.Intn(15), rng.Intn(3) > 0, num(1))
			}
		}
	}
	a := facts.NewStore()
	a.MaxSeq = 10
	fill(a, 600)
	checkSorted(t, a)

	b := facts.NewStore()
	b.MaxSeq = 10
	fill(b, 600)
	a.Merge(b)
	checkSorted(t, a)
}

// TestRecordContextPaths records under one Context slice interleaved A, B,
// A, under fresh copies equal to it, and beyond MaxSeq, and checks that
// the store keys by context value, keeps one shared clone per distinct
// context and never aliases the caller's slice.
func TestRecordContextPaths(t *testing.T) {
	s := facts.NewStore()
	s.MaxSeq = 4
	ca, cb := ctx(9, 0, 10, 1), ctx(100, 2)
	s.Record(1, ca, 0, true, num(1))
	s.Record(1, cb, 0, true, num(2))
	s.Record(1, ca, 0, true, num(1)) // A again after B: joins, not a new fact
	s.Record(2, ca, 0, true, num(3))
	s.Record(2, ctx(9, 0, 10, 1), 0, true, num(3)) // fresh equal copy
	s.Record(2, ca, 7, true, num(4))               // beyond MaxSeq
	s.Record(2, ctx(9, 0, 10, 1), 4, true, num(4)) // the same cap bucket
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4: %s", s.Len(), keys(s))
	}
	f1, ok1 := s.Lookup(1, ctx(9, 0, 10, 1), 0)
	f2, ok2 := s.Lookup(2, ca, 0)
	capped, ok3 := s.Lookup(2, ctx(9, 0, 10, 1), 99)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("lookups with fresh and reused contexts: %v %v %v", ok1, ok2, ok3)
	}
	if f1.Hits != 2 || f2.Hits != 2 || capped.Hits != 2 || capped.Seq != 4 || !capped.Det {
		t.Errorf("hits %d/%d, cap bucket %+v", f1.Hits, f2.Hits, capped)
	}
	if &f1.Ctx[0] != &f2.Ctx[0] || &f1.Ctx[0] == &ca[0] {
		t.Error("facts under one context must share the store's own clone of it")
	}
	if _, ok := s.Lookup(1, ctx(9, 0, 10, 2), 0); ok {
		t.Error("Lookup found a context never recorded")
	}
	if _, ok := s.Lookup(1, ctx(9, 0), 0); ok {
		t.Error("Lookup found a prefix of a recorded context")
	}
	// A lookup of an unknown context interns nothing.
	s.Record(3, ca, 0, true, num(5))
	if f, ok := s.Lookup(3, ctx(9, 0, 10, 1), 0); !ok || f.Ctx.Key() != "9.0>10.1" {
		t.Errorf("record after lookups: %+v %v", f, ok)
	}
	checkSorted(t, s) // instruction 1 holds two facts recorded out of order
}

// keys renders a store's facts as instr|context key|seq, in order.
func keys(s *facts.Store) string {
	var b []byte
	for _, f := range s.All() {
		b = append(b, strconv.Itoa(int(f.Instr))+"|"+f.Ctx.Key()+"|"+strconv.Itoa(f.Seq)+" "...)
	}
	return string(b)
}

// TestMergeOverlappingContexts merges stores that share some contexts
// and not others: shared contexts join, new ones are interned, and
// Conflicts names each conflicting fact as "instr|context key|seq".
func TestMergeOverlappingContexts(t *testing.T) {
	a := facts.NewStore()
	a.Record(7, ctx(10, 0, 100, 2), 3, true, num(1))
	a.Record(7, ctx(9, 1), 0, true, num(2))
	a.Record(8, nil, 0, true, str("x"))
	b := facts.NewStore()
	b.Record(5, ctx(11, 0), 0, true, num(9)) // a context a lacks
	b.Record(7, ctx(10, 0, 100, 2), 3, true, num(5))
	b.Record(7, ctx(9, 1), 0, true, num(2))
	b.Record(8, nil, 0, true, str("y"))
	a.Merge(b)
	want := []string{"7|10.0>100.2|3", "8||0"}
	if len(a.Conflicts) != len(want) || a.Conflicts[0] != want[0] || a.Conflicts[1] != want[1] {
		t.Errorf("Conflicts = %q, want %q", a.Conflicts, want)
	}
	if got := keys(a); got != "7|10.0>100.2|3 7|9.1|0 8||0 5|11.0|0 " {
		t.Errorf("merged facts = %q", got)
	}
	if f, ok := a.Lookup(7, ctx(9, 1), 0); !ok || !f.Det || f.Hits != 2 {
		t.Errorf("agreeing fact under a shared context: %+v %v", f, ok)
	}
	if f, ok := a.Lookup(5, ctx(11, 0), 0); !ok || !f.Det || f.Val.Num != 9 {
		t.Errorf("fact under a context only b had: %+v %v", f, ok)
	}
	checkSorted(t, a)
}
