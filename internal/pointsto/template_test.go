package pointsto

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"determinacy/internal/ir"
	"determinacy/internal/workload"
)

// templateDump renders the builtin template canonically: every object,
// every node with its points-to words, delta, worklist flag, edges and
// constraints, the per-object node tables, both field maps, the builtin
// IDs and the worklist. A solve that wrote into any of it changes the dump.
func templateDump(t *analysis) string {
	var b strings.Builder
	for _, o := range t.objs {
		fmt.Fprintf(&b, "obj %d kind %d site %d fn %v %q sum %d\n", o.ID, o.Kind, o.Site, o.Fn != nil, o.Name, o.sum)
	}
	for i, nd := range t.nodes {
		fmt.Fprintf(&b, "node %d pts %v delta %v queued %v copies %v seen %v constraints %d keys %d\n",
			i, []uint64(nd.pts), nd.delta, nd.inWorklist, nd.copies.ids, nd.copies.seen != nil,
			len(nd.constraints), len(nd.constrKeys))
	}
	for o, on := range t.objNodes {
		fmt.Fprintf(&b, "objnodes %d proto %d wild %d fields %v wildloads %v\n", o, on.proto, on.wild, on.fields, on.wildLoads.ids)
	}
	// fmt prints maps sorted by key.
	fmt.Fprintf(&b, "fieldIDs %v\nfieldNodes %v\nbuiltins %+v\n", t.fieldIDs, t.fieldNodes, t.builtins)
	fmt.Fprintf(&b, "worklist %v hwm %d work %d\n", t.worklist, t.worklistHWM, t.work)
	return b.String()
}

// builtinWriters are programs that write into builtin objects: new fields,
// fields the template already holds, and wildcard stores and loads. callee,
// when set, is a callee one of the program's calls must resolve to.
var builtinWriters = []struct{ name, src, callee string }{
	{"named store into a namespace", "Math.foo = {};", ""},
	{"store into Object.prototype", "Object.prototype.x = function f() {}; var o = {}; o.x();", "fn:f"},
	{"stores over builtin fields", `Math.max = {}; Object.prototype.toString = function s() {};
		document.createElement = function c() {}; document.createElement(); Array.prototype.push = [];`, "fn:c"},
	{"wildcard store through window", `var k = "a" + "b"; window[k] = {}; window.document[k] = [];
		document.getElementsByTagName("a")[k] = function h() {};`, ""},
	{"wildcard load from Array.prototype", `var a = []; var k = "un" + "shift"; var f = Array.prototype[k];
		a[k](function g() {}); f.call(a, {});`, "native:unshift"},
}

// TestTemplateUnchangedBySolves solves programs that write into builtin
// objects and requires the builtin template to read the same afterwards,
// and to equal a freshly built one.
func TestTemplateUnchangedBySolves(t *testing.T) {
	before := sha256.Sum256([]byte(templateDump(builtinTemplate())))
	for _, p := range builtinWriters {
		mod, err := ir.Compile(p.name, p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		res := Analyze(mod, Options{})
		if res.BudgetExceeded {
			t.Fatalf("%s: budget exceeded", p.name)
		}
		if p.callee != "" && !strings.Contains(fmt.Sprint(res.Callees), p.callee) {
			t.Errorf("%s: no call resolved to %s: %v", p.name, p.callee, res.Callees)
		}
	}
	jq := ir.MustCompile("jquery.js", workload.JQuery(workload.JQ10))
	if res := Analyze(jq, Options{Budget: 60_000}); !res.BudgetExceeded {
		t.Fatal("jQuery 1.0 completed at the Table 1 budget")
	}
	after := templateDump(builtinTemplate())
	if sha256.Sum256([]byte(after)) != before {
		t.Error("solving changed the builtin template")
	}
	if after != templateDump(buildTemplate()) {
		t.Error("the builtin template differs from a freshly built one")
	}
}

// TestSolveSharesNoWritableTemplateState checks that a solve's objects,
// nodes, points-to words, deltas, per-object field lists and worklist are
// its own, not the template's. Sharing one goes unseen as long as no
// program writes into it in place, so the goldens alone would not notice.
func TestSolveSharesNoWritableTemplateState(t *testing.T) {
	tpl := builtinTemplate()
	a := Analyze(ir.MustCompile("empty.js", ""), Options{}).an
	for i, o := range tpl.objs {
		if o == a.objs[i] {
			t.Errorf("a solve shares the template's object %s", o)
		}
	}
	for i, tn := range tpl.nodes {
		if nd := a.nodes[i]; tn == nd || aliases(tn.pts, nd.pts) || aliases(tn.delta, nd.delta) {
			t.Errorf("a solve shares the template's node %d or its words", i)
		}
	}
	if aliases(tpl.objNodes, a.objNodes) {
		t.Error("a solve shares the template's object node table")
	}
	for o, on := range tpl.objNodes {
		if aliases(on.fields, a.objNodes[o].fields) {
			t.Errorf("a solve shares the template's field list of %s", tpl.objs[o])
		}
	}
	if aliases(tpl.worklist, a.worklist) {
		t.Error("a solve shares the template's worklist")
	}
}

// aliases reports whether two slices share a backing array start.
func aliases[E any](x, y []E) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0]
}

// TestResultQueriesReadOnly asks a finished solve about nodes it has and
// about names, fields and variables it never created, and requires the
// solve's state to be unchanged afterwards, also with four goroutines
// asking at once.
func TestResultQueriesReadOnly(t *testing.T) {
	mod := ir.MustCompile("q.js", `
		var o = {a: {}};
		var k = "x" + "y";
		var v = o[k];
		function f(p) { return p; }
		f(o);
	`)
	res := Analyze(mod, Options{})
	a := res.an
	nodes, fieldIDs, worklist := len(a.nodes), maps.Clone(a.fieldIDs), slices.Clone(a.worklist)

	var f *ir.Function
	for _, fn := range mod.Funcs() {
		if fn.Name == "f" {
			f = fn
		}
	}
	if f == nil {
		t.Fatal("no function f")
	}
	queries := func() string {
		var b strings.Builder
		for slot := range len(f.SlotNames) + 2 {
			fmt.Fprintln(&b, res.PointsToVar(f, slot))
		}
		for _, name := range []string{"o", "v", "absent", "Math"} {
			fmt.Fprintln(&b, res.PointsToGlobal(name))
		}
		for _, o := range a.objs {
			fmt.Fprintln(&b, res.FieldObjects(o, "a"), res.FieldObjects(o, "absent"), res.WildObjects(o))
		}
		return b.String()
	}
	want := queries()
	if got := res.PointsToGlobal("o"); len(got) != 1 || len(res.FieldObjects(got[0], "a")) != 1 {
		t.Errorf("PointsToGlobal(o) = %v, want one object with one object at .a", got)
	}
	if got := res.PointsToGlobal("absent"); got != nil {
		t.Errorf("PointsToGlobal(absent) = %v, want nil", got)
	}
	if len(a.nodes) != nodes || !maps.Equal(a.fieldIDs, fieldIDs) || !slices.Equal(a.worklist, worklist) {
		t.Fatalf("queries changed the solve: %d → %d nodes, %d → %d interned names, worklist %v → %v",
			nodes, len(a.nodes), len(fieldIDs), len(a.fieldIDs), worklist, a.worklist)
	}

	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := queries(); got != want {
				t.Error("concurrent queries answered differently")
			}
		}()
	}
	wg.Wait()
}

// TestSolveConcurrent solves jQuery 1.0 at the Table 1 budget, the eval
// corpus and the builtin writers on four goroutines at once, every goroutine every input, and
// requires each solve's fixpoint and counters to equal the serial ones.
// Run under -race, it checks that solves share no writable state.
func TestSolveConcurrent(t *testing.T) {
	type input struct {
		name   string
		mod    *ir.Module
		budget int
	}
	inputs := []input{{"jquery-1.0", ir.MustCompile("jquery.js", workload.JQuery(workload.JQ10)), 60_000}}
	for _, b := range workload.EvalCorpus() {
		inputs = append(inputs, input{"eval-" + b.Name, ir.MustCompile(b.Name, b.Source), 0})
	}
	for _, p := range builtinWriters {
		inputs = append(inputs, input{p.name, ir.MustCompile(p.name, p.src), 0})
	}
	answer := func(in input) string {
		res := Analyze(in.mod, Options{Budget: in.budget})
		return fmt.Sprintf("%s\nexceeded %v nodes %d hwm %d\n", fixpointDump(res), res.BudgetExceeded, res.NumNodes, res.WorklistHWM)
	}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = answer(in)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts at another input, so different solves
			// overlap.
			for k := range inputs {
				i := (k + g*len(inputs)/goroutines) % len(inputs)
				if got := answer(inputs[i]); got != want[i] {
					t.Errorf("goroutine %d: %s differs from the serial solve", g, inputs[i].name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEmptySolveAllocs bounds the fixed cost of a solve, which starts from
// the builtin template instead of rebuilding the builtin environment:
// rebuilding it took 672 allocations.
func TestEmptySolveAllocs(t *testing.T) {
	mod := ir.MustCompile("empty.js", "")
	Analyze(mod, Options{}) // builds the template
	allocs := testing.AllocsPerRun(100, func() { Analyze(mod, Options{}) })
	if allocs > 40 {
		t.Errorf("an empty-module solve makes %v allocations, want at most 40", allocs)
	}
}
