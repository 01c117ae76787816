package ir_test

import (
	"math"
	"strings"
	"testing"

	"determinacy/internal/ir"
)

func TestLoweringBasics(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var g = 1;
		function f(a, b) {
			var local = a + b;
			return local;
		}
		f(1, 2);
	`)
	if len(mod.Funcs()) != 2 {
		t.Fatalf("got %d functions, want 2", len(mod.Funcs()))
	}
	f := mod.Funcs()[1]
	if f.Name != "f" {
		t.Errorf("function name %q", f.Name)
	}
	// slots: a, b, this, local
	if f.NumSlots != 4 {
		t.Errorf("slots = %d (%v), want 4", f.NumSlots, f.SlotNames)
	}
	if f.ThisSlot < 0 {
		t.Error("missing this slot")
	}
	// Top-level vars are globals, so the top function has no slots.
	if mod.Top().NumSlots != 0 {
		t.Errorf("top-level slots = %d, want 0", mod.Top().NumSlots)
	}
}

func TestScopeResolution(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		function outer() {
			var x = 1;
			function inner() { x = 2; return x; }
			return inner();
		}
	`)
	var inner *ir.Function
	for _, f := range mod.Funcs() {
		if f.Name == "inner" {
			inner = f
		}
	}
	if inner == nil {
		t.Fatal("inner not lowered")
	}
	found := false
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, in := range b.Instrs {
			if sv, ok := in.(*ir.StoreVar); ok && sv.Var.Name == "x" {
				if sv.Var.Hops != 1 {
					t.Errorf("x resolved with hops=%d, want 1", sv.Var.Hops)
				}
				found = true
			}
		}
	}
	walk(inner.Body)
	if !found {
		t.Error("no StoreVar for x in inner")
	}
}

func TestReentrancyMarking(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var a = 1;
		for (var i = 0; i < 3; i++) {
			var b = i * 2;
		}
		function f() { var c = 5; }
	`)
	var inLoop, outLoop, inFn int
	mod.ForEachInstr(func(in ir.Instr, fn *ir.Function) {
		switch {
		case in.IPos().Line == 4 && mod.IsReentrant(in.IID()):
			inLoop++
		case in.IPos().Line == 2 && mod.IsReentrant(in.IID()):
			outLoop++
		case in.IPos().Line == 6 && mod.IsReentrant(in.IID()):
			inFn++
		}
	})
	if inLoop == 0 {
		t.Error("loop body instructions not marked reentrant")
	}
	if outLoop != 0 {
		t.Error("pre-loop instructions marked reentrant")
	}
	if inFn != 0 {
		t.Error("function body (outside loops) marked reentrant")
	}
}

func TestWritesOf(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		function f() {
			var a = 1, b = 2;
			if (a) { b = 3; }
			while (b) { a = 4; }
			function g() { var c = 9; }
		}
	`)
	f := mod.Funcs()[1]
	writes := ir.WritesOf(f.Body)
	names := map[string]bool{}
	for _, w := range writes {
		names[w.Name] = true
	}
	if !names["a"] || !names["b"] {
		t.Errorf("writes = %v, want a and b", names)
	}
	if names["c"] {
		t.Error("nested function writes must not leak into vd(s)")
	}
}

func TestLowerEvalScoping(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		function caller() {
			var captured = 10;
			return 0;
		}
	`)
	caller := mod.Funcs()[1]
	run := mod.Layer()
	fn, err := ir.LowerEval(run, "captured + 1", caller)
	if err != nil {
		t.Fatal(err)
	}
	if !fn.IsEval || fn.Parent != caller {
		t.Error("eval function not linked to caller scope")
	}
	// The free variable resolves into the caller's slots, one hop out.
	found := false
	for _, in := range fn.Body.Instrs {
		if lv, ok := in.(*ir.LoadVar); ok && lv.Var.Name == "captured" {
			if lv.Var.Hops != 1 {
				t.Errorf("captured at hops=%d, want 1", lv.Var.Hops)
			}
			found = true
		}
	}
	if !found {
		t.Error("captured not resolved as a local")
	}
	if _, err := ir.LowerEval(run, "syntax error (", caller); err == nil {
		t.Error("expected a parse error")
	}
}

// TestLayerLeavesBaseFrozen lowers eval code into a run layer and checks
// that the layer sees it after the base's functions and instructions while
// the base module is untouched, that a repeated source is memoized, and
// that a source which fails to lower still uses up its instruction IDs.
func TestLayerLeavesBaseFrozen(t *testing.T) {
	mod := ir.MustCompile("t.js", `function f() { return 1; }`)
	nFuncs, nInstrs := len(mod.Funcs()), mod.NumInstrs
	run := mod.Layer()
	fn, err := ir.LowerEval(run, "var k = 2; k", mod.Top())
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ir.LowerEval(run, "var k = 2; k", mod.Top()); again != fn {
		t.Error("repeated eval source was lowered again")
	}
	if fn.Index != nFuncs || run.Funcs()[nFuncs] != fn || len(run.Funcs()) != nFuncs+1 {
		t.Errorf("eval function Index = %d in %d layer functions, want %d", fn.Index, len(run.Funcs()), nFuncs)
	}
	if len(mod.Funcs()) != nFuncs || mod.NumInstrs != nInstrs || mod.InstrAt(ir.ID(nInstrs)) != nil {
		t.Fatal("lowering into the layer changed the base module")
	}
	first := fn.Body.Instrs[0].IID()
	if int(first) != nInstrs || run.InstrAt(first) == nil || run.FuncOf(first) != fn {
		t.Errorf("first eval instruction %d not indexed in the layer after %d base instructions", first, nInstrs)
	}
	if run.InstrAt(0) != mod.InstrAt(0) || run.Top() != mod.Top() {
		t.Error("layer does not answer for its base")
	}
	used := run.NumInstrs
	if _, err := ir.LowerEval(run, "switch (k) { case 1: a(); case 2: b(); }", mod.Top()); err == nil {
		t.Fatal("expected a lowering error")
	}
	if run.NumInstrs <= used || len(run.Funcs()) != nFuncs+1 {
		t.Errorf("failed lowering: NumInstrs %d (was %d), %d functions", run.NumInstrs, used, len(run.Funcs()))
	}
	if other := mod.Layer(); other.NumInstrs != nInstrs || len(other.Funcs()) != nFuncs {
		t.Error("a second layer sees the first layer's eval code")
	}
}

func TestSwitchLowering(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		function f(x) {
			switch (x) {
			case 1: return "one";
			case 2:
			case 3: return "few";
			default: return "many";
			}
		}
	`)
	s := mod.String()
	if !strings.Contains(s, "===") {
		t.Errorf("switch not lowered to strict comparisons:\n%s", s)
	}
	// Fall-through between non-empty cases is rejected.
	if _, err := ir.Compile("bad.js", `
		switch (x) { case 1: a(); case 2: b(); }
	`); err == nil {
		t.Error("expected lowering error for fall-through")
	}
}

func TestInstrIDsUniqueAndIndexed(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var a = 1 + 2;
		function f() { return a * 3; }
		f();
	`)
	seen := map[ir.ID]bool{}
	count := 0
	mod.ForEachInstr(func(in ir.Instr, fn *ir.Function) {
		if seen[in.IID()] {
			t.Errorf("duplicate instruction id %d", in.IID())
		}
		seen[in.IID()] = true
		if mod.InstrAt(in.IID()) != in {
			t.Errorf("InstrAt(%d) mismatch", in.IID())
		}
		if mod.FuncOf(in.IID()) != fn {
			t.Errorf("FuncOf(%d) mismatch", in.IID())
		}
		count++
	})
	if count == 0 || count > mod.NumInstrs {
		t.Errorf("instruction count %d vs NumInstrs %d", count, mod.NumInstrs)
	}
}

func TestLogicalLowering(t *testing.T) {
	// && and || lower to If with a shared result register; the IR printer
	// shows the structure.
	mod := ir.MustCompile("t.js", `var r = a() && b();`)
	s := mod.String()
	if !strings.Contains(s, "if r") {
		t.Errorf("logical not lowered to a conditional:\n%s", s)
	}
}

// TestInstrStringForms pins InstrString on the forms the corpus golden
// reaches rarely or never: non-finite, negative-zero and exponent
// literals, quoted strings, empty operand lists, a receiverless call,
// do-while, a global for-in target and a bare return.
func TestInstrStringForms(t *testing.T) {
	lit := func(l ir.Literal) ir.Instr { return &ir.Const{Dst: 3, Val: l} }
	num := func(n float64) ir.Instr { return lit(ir.Literal{Kind: ir.LitNumber, Num: n}) }
	cases := []struct {
		in   ir.Instr
		want string
	}{
		{num(math.NaN()), "r3 = const NaN"},
		{num(math.Inf(-1)), "r3 = const -Inf"},
		{num(math.Copysign(0, -1)), "r3 = const -0"},
		{num(1e21), "r3 = const 1e+21"},
		{num(1e-7), "r3 = const 1e-07"},
		{num(0.1), "r3 = const 0.1"},
		{lit(ir.Literal{Kind: ir.LitString, Str: "a\"b\\\n\u2028é\xff"}), `r3 = const "a\"b\\\n\u2028é\xff"`},
		{lit(ir.Literal{Kind: ir.LitBool, Bool: true}), "r3 = const true"},
		{lit(ir.Literal{Kind: ir.LitNull}), "r3 = const null"},
		{lit(ir.Literal{Kind: ir.LitUndefined}), "r3 = const undefined"},
		{&ir.MakeObject{Dst: 1}, "r1 = object {}"},
		{&ir.MakeObject{Dst: 1, Props: []ir.Prop{{Key: "a", Val: 2}, {Key: "b c", Val: 3}}}, "r1 = object {a: r2, b c: r3}"},
		{&ir.MakeArray{Dst: 1}, "r1 = array []"},
		{&ir.MakeArray{Dst: 1, Elems: []ir.Reg{2, 10}}, "r1 = array [r2, r10]"},
		{&ir.Call{Dst: 4, Fn: 5, This: ir.NoReg}, "r4 = call r5 this=r-1 args=[]"},
		{&ir.New{Dst: 4, Fn: 5, Args: []ir.Reg{6}}, "r4 = new r5 args=[r6]"},
		{&ir.While{Cond: 7, PostTest: true}, "do-while r7"},
		{&ir.While{Cond: 7}, "while r7"},
		{&ir.ForIn{Global: true, TargetGlobal: "k", Obj: 8}, "for k in r8"},
		{&ir.ForIn{Target: ir.VarRef{Name: "k", Hops: 1, Slot: 2}, Obj: 8}, "for k in r8"},
		{&ir.StoreVar{Var: ir.VarRef{Name: "v", Hops: 0, Slot: 12}, Src: 9}, "var v@0.12 = r9"},
		{&ir.DelProp{Dst: 1, Obj: 2, Prop: 3}, "r1 = delete r2[r3]"},
		{&ir.SetProp{Obj: 1, Prop: 2, Src: 3}, "r1[r2] = r3"},
		{&ir.Return{Src: ir.NoReg}, "return"},
		{&ir.Return{Src: 0}, "return r0"},
	}
	for _, c := range cases {
		if got := ir.InstrString(c.in); got != c.want {
			t.Errorf("InstrString(%#v) = %q, want %q", c.in, got, c.want)
		}
	}
}
