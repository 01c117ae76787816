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

// TestSortedOrder checks Sorted against a reference sort that renders each
// context key afresh: instruction, then context key, then occurrence.
func TestSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := facts.NewStore()
	for i := 0; i < 2000; i++ {
		var c facts.Context
		for d := rng.Intn(4); d > 0; d-- {
			c = append(c, facts.ContextEntry{Site: ir.ID(rng.Intn(30)), Seq: rng.Intn(12)})
		}
		s.Record(ir.ID(rng.Intn(40)), c, rng.Intn(15), true, num(1))
	}
	want := s.All()
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if ka, kb := a.Ctx.Key(), b.Ctx.Key(); ka != kb {
			return ka < kb
		}
		return a.Seq < b.Seq
	})
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
