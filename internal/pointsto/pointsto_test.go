package pointsto_test

import (
	"strings"
	"testing"

	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/pointsto"
)

func analyze(t *testing.T, src string) (*ir.Module, *pointsto.Result) {
	t.Helper()
	mod, err := ir.Compile("t.js", src)
	if err != nil {
		t.Fatal(err)
	}
	return mod, pointsto.Analyze(mod, pointsto.Options{})
}

// calleesAtLine collects the names of user-function callees of calls on a
// source line.
func calleesAtLine(mod *ir.Module, res *pointsto.Result, line int) map[string]bool {
	out := map[string]bool{}
	for site, objs := range res.Callees {
		in := mod.InstrAt(site)
		if in == nil || in.IPos().Line != line {
			continue
		}
		for _, o := range objs {
			if o.Fn != nil {
				out[o.Fn.Name] = true
			} else {
				out["native:"+o.Name] = true
			}
		}
	}
	return out
}

func TestDirectCallResolution(t *testing.T) {
	mod, res := analyze(t, `
		function f() { return 1; }
		function g() { return 2; }
		f();
	`)
	cs := calleesAtLine(mod, res, 4)
	if !cs["f"] || cs["g"] || len(cs) != 1 {
		t.Errorf("callees = %v, want exactly f", cs)
	}
}

func TestHigherOrderFlow(t *testing.T) {
	mod, res := analyze(t, `
		function apply1(fn, x) { return fn(x); }
		function inc(n) { return n + 1; }
		function dec(n) { return n - 1; }
		apply1(inc, 1);
		apply1(dec, 2);
	`)
	cs := calleesAtLine(mod, res, 2)
	if !cs["inc"] || !cs["dec"] {
		t.Errorf("fn(x) should resolve to inc and dec, got %v", cs)
	}
}

func TestPrototypeMethodResolution(t *testing.T) {
	mod, res := analyze(t, `
		function Dog() {}
		Dog.prototype.bark = function bark() { return "woof"; };
		var d = new Dog();
		d.bark();
	`)
	cs := calleesAtLine(mod, res, 5)
	if !cs["bark"] {
		t.Errorf("method through prototype not resolved: %v", cs)
	}
}

func TestWildcardSmear(t *testing.T) {
	// A computed property write smears values over the wildcard; reads of
	// any field see them (the baseline imprecision the paper exploits).
	mod, res := analyze(t, `
		var table = {};
		function a() { return 1; }
		function b() { return 2; }
		var key = "x" + "y";
		table[key] = a;
		table.other = b;
		table.missing();
	`)
	cs := calleesAtLine(mod, res, 8)
	if !cs["a"] {
		t.Errorf("wildcard value must reach field reads: %v", cs)
	}
	if cs["b"] {
		t.Errorf("named field must not leak into other fields: %v", cs)
	}
}

func TestConstStringIndexPrecise(t *testing.T) {
	// A literal index behaves like a static field access.
	mod, res := analyze(t, `
		var table = {};
		function a() { return 1; }
		function b() { return 2; }
		table["x"] = a;
		table["y"] = b;
		table["x"]();
	`)
	cs := calleesAtLine(mod, res, 7)
	if !cs["a"] || cs["b"] {
		t.Errorf("literal-index call should resolve to exactly a: %v", cs)
	}
}

func TestLazyReachability(t *testing.T) {
	_, res := analyze(t, `
		function dead() {
			var a = heavyCompute();
			return a;
		}
		function live() { return 1; }
		live();
	`)
	// dead is never called: only the top level and live are processed.
	if res.ReachableFuncs != 2 {
		t.Errorf("reachable funcs = %d, want 2 (top level + live)", res.ReachableFuncs)
	}
}

func TestBudgetExceeded(t *testing.T) {
	mod, err := ir.Compile("t.js", `
		var o = {};
		function mk(i) { o["f" + i] = function() { return o; }; }
		for (var i = 0; i < 5; i++) mk(i);
		o.a();
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := pointsto.Analyze(mod, pointsto.Options{Budget: 10})
	if !res.BudgetExceeded {
		t.Error("tiny budget must be exceeded")
	}
}

func TestEvalSiteDetection(t *testing.T) {
	mod, res := analyze(t, `
		var x = eval("1 + 2");
		var f = function real() { return 3; };
		f();
	`)
	if len(res.EvalSites) != 1 {
		t.Errorf("eval sites = %d, want 1", len(res.EvalSites))
	}
	if in := mod.InstrAt(res.EvalSites[0]); in == nil || in.IPos().Line != 2 {
		t.Errorf("eval site at wrong position")
	}
}

func TestCallAndApplyModeled(t *testing.T) {
	mod, res := analyze(t, `
		function target(a) { return a; }
		target.call(null, 1);
		target.apply(null, [2]);
	`)
	for _, line := range []int{3, 4} {
		cs := calleesAtLine(mod, res, line)
		if !cs["native:call"] && !cs["native:apply"] {
			t.Errorf("line %d: call/apply native not resolved: %v", line, cs)
		}
	}
	// target itself must become reachable through both.
	if res.ReachableFuncs < 2 {
		t.Errorf("target not reached through call/apply: %d", res.ReachableFuncs)
	}
}

func TestEventHandlerReachability(t *testing.T) {
	_, res := analyze(t, `
		function handler(ev) { return ev.target; }
		document.addEventListener("click", handler);
		setTimeout(function timer() { return 1; }, 0);
	`)
	if res.ReachableFuncs != 3 {
		t.Errorf("handler and timer must be statically reachable: got %d funcs", res.ReachableFuncs)
	}
}

func TestClosureVariableFlow(t *testing.T) {
	mod, res := analyze(t, `
		function mkCounter() {
			var target = function inner() { return 1; };
			return function get() { return target; };
		}
		var g = mkCounter();
		var inner = g();
		inner();
	`)
	cs := calleesAtLine(mod, res, 8)
	if !cs["inner"] {
		t.Errorf("closure-captured function not resolved: %v", cs)
	}
}

func TestThisBinding(t *testing.T) {
	mod, res := analyze(t, `
		function Box(v) { this.v = v; this.get = function boxGet() { return this.v; }; }
		var b = new Box(7);
		b.get();
	`)
	cs := calleesAtLine(mod, res, 4)
	if !cs["boxGet"] {
		t.Errorf("constructor-installed method not resolved: %v", cs)
	}
}

func TestPointsToGlobals(t *testing.T) {
	_, res := analyze(t, `
		var shared = {tag: 1};
		var alias = shared;
	`)
	a := res.PointsToGlobal("shared")
	b := res.PointsToGlobal("alias")
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("aliases must share the abstract object: %v vs %v", a, b)
	}
}

// TestModelCoversBuiltins guards the hand-written builtin model against
// the runtime's table: every native function in interp.Builtins must
// resolve to an abstract object, on the global object or under its owner
// (a namespace, a constructor, or <Ctor>.prototype).
func TestModelCoversBuiltins(t *testing.T) {
	_, res := analyze(t, "")
	owners := func(owner string) []*pointsto.Object {
		ctor, isProto := strings.CutSuffix(owner, ".prototype")
		objs := res.PointsToGlobal(ctor)
		if !isProto {
			return objs
		}
		var protos []*pointsto.Object
		for _, c := range objs {
			protos = append(protos, res.FieldObjects(c, "prototype")...)
		}
		return protos
	}
	checked := 0
	for i := range interp.Builtins {
		b := &interp.Builtins[i]
		if b.Fn == nil {
			continue
		}
		checked++
		objs := res.PointsToGlobal(b.Name)
		if b.Owner != "" {
			objs = nil
			for _, o := range owners(b.Owner) {
				objs = append(objs, res.FieldObjects(o, b.Name)...)
			}
		}
		if len(objs) == 0 {
			t.Errorf("builtin %s has no abstract object", b.Path())
		}
	}
	if checked == 0 {
		t.Fatal("interp.Builtins has no native functions")
	}
}
