package pointsto_test

import (
	"strings"
	"testing"

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

// TestNativeSummaries checks the pointer behaviour each declared summary
// gives a native: a call on each program's last line must resolve to want.
// The last line runs in a function of its own, so no register it uses is
// shared with the set-up lines.
func TestNativeSummaries(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"StoresArgs", "var a = [];\na.push(function f() {});\n(function use() { a[0](); })();", "f"},
		{"LoadsElement", "var a = [function f() {}];\n(function use() { a.pop()(); })();", "f"},
		{"LoadsElement shift", "var a = [function f() {}];\n(function use() { a.shift()(); })();", "f"},
		{"static-only unshift", "var a = [];\na.unshift(function f() {});\n(function use() { a[0](); })();", "f"},
		{"CallsBack", "[function f() {}].map(function cb(x) {\nx(); });", "f"},
		{"Constructs Array", "var a = Array();\n(function use() { a.push(1); })();", "native:push"},
		{"Constructs Error", "var e = new TypeError(\"x\");\n(function use() { e.toString(); })();", "native:toString"},
		{"ReturnsElement", "var e = document.createElement(\"div\");\n(function use() { e.setAttribute(\"id\", \"x\"); })();", "native:setAttribute"},
		{"ReturnsNodeList", "var l = document.getElementsByTagName(\"a\");\n(function use() { l[0].getAttribute(\"x\"); })();", "native:getAttribute"},
		{"element getter", "var e = document.body.firstChild;\n(function use() { e.removeChild(null); })();", "native:removeChild"},
	}
	for _, c := range cases {
		mod, res := analyze(t, c.src)
		line := strings.Count(c.src, "\n") + 1
		if cs := calleesAtLine(mod, res, line); !cs[c.want] {
			t.Errorf("%s: callees at line %d = %v, want %s", c.name, line, cs, c.want)
		}
	}
}
