package determinacy_test

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/workload"
)

func TestAnalyzeQuickstart(t *testing.T) {
	res, err := determinacy.Analyze(`
		var a = 1 + 2;
		var b = Math.random();
		var c = a * 10;
	`, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFacts() == 0 || res.NumDeterminate() == 0 {
		t.Fatalf("no facts collected: %d/%d", res.NumDeterminate(), res.NumFacts())
	}
	if res.NumDeterminate() >= res.NumFacts() {
		t.Error("Math.random must yield at least one indeterminate fact")
	}
	sawC := false
	for _, f := range res.FactsAtLine(4) {
		if strings.Contains(f.Point, "*") {
			if !f.Determinate || f.Value != "30" {
				t.Errorf("fact for a*10: %+v", f)
			}
			sawC = true
		}
	}
	if !sawC {
		t.Error("no fact for the multiplication at line 4")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := determinacy.Analyze("var x = ;", determinacy.Options{}); err == nil {
		t.Error("syntax error must be reported")
	}
	if _, err := determinacy.Analyze("undefinedFn();", determinacy.Options{}); err == nil {
		t.Error("uncaught exception must be reported")
	}
}

func TestRunMatchesAnalyzeOutput(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`
		var parts = [];
		for (var i = 0; i < 3; i++) parts.push("v" + i);
		console.log(parts.join(","));
	`, "v0,v1,v2\n"},
		// Phantom properties (deleted under an indeterminate branch, or
		// created only counterfactually) are concretely absent and must
		// not show when an object is printed.
		{`
		var o = {a: 1, b: 2, c: 3};
		if (Math.random() < 2) delete o.b;
		var p = {a: 1};
		if (Math.random() > 2) p.z = 1;
		console.log(o, p);
	`, "{a: 1, c: 3} {a: 1}\n"},
	} {
		var runOut, anaOut strings.Builder
		if _, err := determinacy.Run(c.src, determinacy.Options{Out: &runOut}); err != nil {
			t.Fatal(err)
		}
		if _, err := determinacy.Analyze(c.src, determinacy.Options{Out: &anaOut}); err != nil {
			t.Fatal(err)
		}
		if runOut.String() != anaOut.String() {
			t.Errorf("instrumentation changed behaviour: %q vs %q", runOut.String(), anaOut.String())
		}
		if runOut.String() != c.want {
			t.Errorf("unexpected output %q, want %q", runOut.String(), c.want)
		}
	}
}

func TestInputsFlowIndeterminate(t *testing.T) {
	res, err := determinacy.Analyze(`var x = __input("n") + 1;`, determinacy.Options{
		Inputs: map[string]determinacy.Value{"n": determinacy.NumberValue(41)},
		Out:    io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.FactsAtLine(1) {
		if strings.Contains(f.Point, "+") && f.Determinate {
			t.Errorf("input-derived value must be indeterminate: %+v", f)
		}
	}
}

func TestSpecializeEndToEnd(t *testing.T) {
	src := `
		var cfg = {mode: "fast"};
		if (cfg.mode === "fast") { console.log("F"); } else { console.log("S"); }
	`
	res, err := determinacy.Analyze(src, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := res.Specialize(determinacy.SpecializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Stats.BranchesPruned != 1 {
		t.Errorf("stats: %+v", spec.Stats)
	}
	if strings.Contains(spec.Source, `"S"`) {
		t.Errorf("dead branch survived:\n%s", spec.Source)
	}
	out, err := determinacy.Run(spec.Source, determinacy.Options{})
	if err != nil || !strings.Contains(out, "F") {
		t.Errorf("specialized program misbehaves: %q, %v", out, err)
	}
}

// figure3 is the paper's Figure 3 program.
const figure3 = `
function Rectangle(w, h) {
	this.width = w;
	this.height = h;
}
Rectangle.prototype.toString = function() {
	return "[" + this.width + "x" + this.height + "]";
};
String.prototype.cap = function() {
	return this[0].toUpperCase() + this.substr(1);
};
function defAccessors(prop) {
	Rectangle.prototype["get" + prop.cap()] =
		function() { return this[prop]; };
	Rectangle.prototype["set" + prop.cap()] =
		function(v) { this[prop] = v; };
}
var props = ["width", "height"];
for (var i = 0; i < props.length; i++)
	defAccessors(props[i]);
var r = new Rectangle(20, 30);
r.setWidth(r.getWidth() + 20);
console.log(r.toString());
`

// TestSpecializeWithFactsRoundTrip pins the serialized-facts path that
// detspec -facts takes: encoding a run's store and specializing the same
// source from it gives exactly what specializing the run directly gives.
func TestSpecializeWithFactsRoundTrip(t *testing.T) {
	figure2, err := os.ReadFile("examples/js/figure2.js")
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]string{"figure2": string(figure2), "figure3": figure3}
	for _, b := range workload.EvalCorpus() {
		if b.Name == "concat-ivymap" {
			progs[b.Name] = b.Source
		}
	}
	if len(progs) != 3 {
		t.Fatalf("concat-ivymap missing from the eval corpus")
	}
	for name, src := range progs {
		res, err := determinacy.Analyze(src, determinacy.Options{Seed: 2, WithDOM: true, Out: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var enc bytes.Buffer
		if err := res.Store().Encode(&enc); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		for _, opts := range []determinacy.SpecializeOptions{{}, {EliminateEval: true}} {
			want, err := res.Specialize(opts)
			if err != nil {
				t.Fatalf("%s %+v: Specialize: %v", name, opts, err)
			}
			got, err := determinacy.SpecializeWithFacts("program.js", src, bytes.NewReader(enc.Bytes()), opts)
			if err != nil {
				t.Fatalf("%s %+v: SpecializeWithFacts: %v", name, opts, err)
			}
			// Both non-figure2 programs clone per context, and the eval in
			// concat-ivymap goes when asked, so the comparison is not
			// between two empty specializations.
			if name != "figure2" && want.Stats.ClonesCreated == 0 ||
				name == "concat-ivymap" && opts.EliminateEval && want.Stats.EvalsEliminated == 0 {
				t.Fatalf("%s %+v: nothing specialized: %+v", name, opts, want.Stats)
			}
			if got.Source != want.Source {
				t.Errorf("%s %+v: source differs:\n%s\nwant:\n%s", name, opts, got.Source, want.Source)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s %+v: stats %+v, want %+v", name, opts, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.EvalSites, want.EvalSites) {
				t.Errorf("%s %+v: eval sites %+v, want %+v", name, opts, got.EvalSites, want.EvalSites)
			}
			if !reflect.DeepEqual(got.DeadBranches, want.DeadBranches) {
				t.Errorf("%s %+v: dead branches %+v, want %+v", name, opts, got.DeadBranches, want.DeadBranches)
			}
		}
	}
}

func TestDeadBranchReport(t *testing.T) {
	src := `
		function classify(x) {
			if (typeof x === "string") { return "s"; }
			return "o";
		}
		classify("hello");
		classify(42);
	`
	res, err := determinacy.Analyze(src, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := res.Specialize(determinacy.SpecializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.DeadBranches) != 2 {
		t.Fatalf("dead branches: %+v, want one per context", spec.DeadBranches)
	}
	var taken, notTaken bool
	for _, db := range spec.DeadBranches {
		if db.Line != 3 {
			t.Errorf("dead branch at line %d, want 3", db.Line)
		}
		if db.Taken {
			taken = true
		} else {
			notTaken = true
		}
	}
	if !taken || !notTaken {
		t.Errorf("expected one live-then and one live-else context: %+v", spec.DeadBranches)
	}
}

func TestPointsToAPI(t *testing.T) {
	rep, err := determinacy.PointsTo(`
		function f() { return 1; }
		f();
		var r = eval("2");
	`, determinacy.PointsToOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetExceeded {
		t.Error("tiny program exceeded the budget")
	}
	if rep.EvalSites != 1 {
		t.Errorf("eval sites = %d, want 1", rep.EvalSites)
	}
	if rep.ReachableFuncs != 2 {
		t.Errorf("reachable funcs = %d, want 2", rep.ReachableFuncs)
	}
}

func TestDOMOptions(t *testing.T) {
	src := `console.log(document.getElementById("main").tagName);`
	out, err := determinacy.Run(src, determinacy.Options{WithDOM: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "DIV" {
		t.Errorf("got %q", out)
	}
	res, err := determinacy.Analyze(src, determinacy.Options{WithDOM: true, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFacts() == 0 {
		t.Error("no facts with DOM")
	}
}

func TestFlushLimitSurfacesAsStopped(t *testing.T) {
	res, err := determinacy.Analyze(`
		var fns = [function(){ return 1; }, function(){ return 2; }];
		for (var i = 0; i < 50; i++) {
			fns[Math.random() < 0.5 ? 0 : 1]();
		}
	`, determinacy.Options{MaxFlushes: 5, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped == nil {
		t.Error("expected the flush limit to stop the analysis")
	}
	if res.NumFacts() == 0 {
		t.Error("facts collected before the stop must be available")
	}
}

func TestAnalyzeRunsMergesSoundly(t *testing.T) {
	// A program whose coverage depends on the random seed: different runs
	// observe different branches, and merged facts stay consistent.
	src := `
		var mode = Math.random() < 0.5;
		var out;
		if (mode) { out = "low"; } else { out = "high"; }
		var stable = 1 + 2;
		var r = eval("stable + 39");
	`
	prog, err := determinacy.Compile("program.js", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := determinacy.AnalyzeRuns(prog, determinacy.Options{Out: io.Discard}, 1, 2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	sawStable := false
	for _, f := range res.FactsAtLine(5) {
		if strings.Contains(f.Point, "+") {
			if !f.Determinate || f.Value != "3" {
				t.Errorf("stable fact lost in merge: %+v", f)
			}
			sawStable = true
		}
	}
	if !sawStable {
		t.Error("missing merged fact for the stable computation")
	}
	for _, f := range res.FactsAtLine(4) {
		if f.Determinate && (f.Value == `"low"` || f.Value == `"high"`) && strings.Contains(f.Point, "const") {
			// Constants inside branches stay determinate; that is fine. The
			// loaded value of `out` afterwards must not be determinate.
			continue
		}
	}
}

func TestAblationOptionsExposed(t *testing.T) {
	src := `
		var o = {p: 1};
		if (Math.random() > 2) { o.p = 9; }
		var probe = o.p;
	`
	normal, err := determinacy.Analyze(src, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := determinacy.Analyze(src, determinacy.Options{DisableCounterfactual: true, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if normal.Stats.HeapFlushes >= ablated.Stats.HeapFlushes {
		t.Errorf("counterfactual should avoid flushes: %d vs %d",
			normal.Stats.HeapFlushes, ablated.Stats.HeapFlushes)
	}
}
