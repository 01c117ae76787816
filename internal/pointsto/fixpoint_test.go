package pointsto

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"determinacy/internal/ir"
	"determinacy/internal/workload"
)

// solveInput is one program the fixpoint tests solve to completion.
type solveInput struct{ name, src string }

// liftedBudget is far above any completing solve of the inputs below, so
// every one of them runs to its fixpoint.
const liftedBudget = 50_000_000

// fixpointInputs lists the programs TestFixpointGolden pins: the four
// jQuery libraries, the example programs, the small programs in
// testdata/fixpoint that aim at single solver paths, the eval corpus and
// 200 random programs across the generator's feature switches.
func fixpointInputs(t *testing.T) []solveInput {
	t.Helper()
	var in []solveInput
	for _, v := range workload.JQueryVersions {
		in = append(in, solveInput{"jquery-" + string(v), workload.JQuery(v)})
	}
	for _, dir := range []struct{ prefix, glob string }{
		{"example-", filepath.Join("..", "..", "examples", "js", "*.js")},
		{"kernel-", filepath.Join("testdata", "fixpoint", "*.js")},
	} {
		paths, err := filepath.Glob(dir.glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs at %s: %v", dir.glob, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			in = append(in, solveInput{dir.prefix + filepath.Base(p), string(src)})
		}
	}
	for _, b := range workload.EvalCorpus() {
		in = append(in, solveInput{"eval-" + b.Name, b.Source})
	}
	for i := 0; i < 200; i++ {
		cfg := workload.GenConfig{
			Seed:         uint64(i + 1),
			MaxStmts:     20 + 15*(i%4),
			MaxDepth:     2 + i%3,
			IndetPercent: 10 + 10*(i%5),
			WithForIn:    i%2 == 0,
			WithEval:     i%3 == 0,
			WithProto:    i%4 != 3,
			WithConsole:  i%5 == 0,
		}
		in = append(in, solveInput{fmt.Sprintf("random-%03d", i), workload.RandomProgram(cfg)})
	}
	return in
}

// solveLifted compiles and solves src with the budget lifted, failing the
// test unless the solve completes.
func solveLifted(t *testing.T, name, src string) *Result {
	t.Helper()
	mod, err := ir.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res := Analyze(mod, Options{Budget: liftedBudget})
	if res.BudgetExceeded || res.Interrupted != nil {
		t.Fatalf("%s: solve did not complete", name)
	}
	return res
}

// fixpointDump renders a completed solve canonically: one line per node,
// named by its key, with its points-to set as sorted object names; then
// every call site's sorted callee names, the sorted eval sites and the
// work counters. Object IDs never appear, since they follow the order in
// which the solver reaches allocation sites; only what the fixpoint holds
// does.
func fixpointDump(res *Result) string {
	a := res.an
	names := func(objs []ObjID) string {
		s := make([]string, len(objs))
		for i, o := range objs {
			s[i] = a.objs[o].String()
		}
		sort.Strings(s)
		return "{" + strings.Join(s, " ") + "}"
	}
	var nodes []string
	node := func(key string, n int) {
		var objs []ObjID
		a.nodes[n].pts.forEach(func(o ObjID) { objs = append(objs, o) })
		nodes = append(nodes, key+" "+names(objs))
	}
	for k, n := range a.varNodes {
		node(fmt.Sprintf("var %d/%d", k.fn, k.slot), n)
	}
	for k, n := range a.regNodes {
		node(fmt.Sprintf("reg %d/%d", k.fn, k.reg), n)
	}
	fieldNames := fieldNames(a)
	for _, layer := range []map[fieldKey]int{a.baseFieldNodes, a.fieldNodes} {
		for k, n := range layer {
			node(fmt.Sprintf("field %s.%q", a.objs[k.obj], fieldNames[k.field]), n)
		}
	}
	for o, on := range a.objNodes {
		if on.wild >= 0 {
			node(fmt.Sprintf("wild %s", a.objs[o]), int(on.wild))
		}
		if on.proto >= 0 {
			node(fmt.Sprintf("proto %s", a.objs[o]), int(on.proto))
		}
	}
	for fi, n := range a.retNodes {
		if n >= 0 {
			node(fmt.Sprintf("return %d", fi), n)
		}
	}
	if a.thrown >= 0 {
		node("thrown", a.thrown)
	}
	sort.Strings(nodes)

	var calls []string
	for site, callees := range res.Callees {
		ids := make([]ObjID, len(callees))
		for i, o := range callees {
			ids[i] = o.ID
		}
		calls = append(calls, fmt.Sprintf("call %d %s", site, names(ids)))
	}
	sort.Strings(calls)
	evals := make([]int, len(res.EvalSites))
	for i, s := range res.EvalSites {
		evals[i] = int(s)
	}
	sort.Ints(evals)

	var b strings.Builder
	for _, l := range nodes {
		b.WriteString(l + "\n")
	}
	for _, l := range calls {
		b.WriteString(l + "\n")
	}
	fmt.Fprintf(&b, "eval sites %v\npropagations %d\nreachable %d\nobjects %d\n",
		evals, res.Propagations, res.ReachableFuncs, res.NumObjects)
	return b.String()
}

// TestFixpointGolden pins what every input's solve converges to, one
// sha256 of fixpointDump per input. A solve's fixpoint does not depend on
// the order the worklist processes nodes in, so the golden holds across
// any change to the solver's representation or scheduling and moves only
// with a change to what a constraint means. To re-record it, delete it and
// run this test: it writes the missing file and fails.
func TestFixpointGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range fixpointInputs(t) {
		res := solveLifted(t, in.name, in.src)
		fmt.Fprintf(&b, "%s %x\n", in.name, sha256.Sum256([]byte(fixpointDump(res))))
	}
	checkGolden(t, "fixpoint.golden", []byte(b.String()))
}

// TestBudgetLiftedTable1Work pins the work the three budget-capped Table 1
// baselines would do with no budget: the reflective blowup the 60,000
// propagation budget cuts short (EXPERIMENTS.md, "Underlying propagation
// work").
func TestBudgetLiftedTable1Work(t *testing.T) {
	for _, c := range []struct {
		v                                   workload.JQueryVersion
		props, nodes, objects, reachableFns int
	}{
		{workload.JQ10, 315_609, 10_030, 269, 37},
		{workload.JQ11, 317_913, 10_064, 272, 37},
		{workload.JQ13, 297_544, 9_821, 268, 37},
	} {
		res := solveLifted(t, "jquery-"+string(c.v), workload.JQuery(c.v))
		got := [4]int{res.Propagations, res.NumNodes, res.NumObjects, res.ReachableFuncs}
		if want := [4]int{c.props, c.nodes, c.objects, c.reachableFns}; got != want {
			t.Errorf("jQuery %s lifted (propagations, nodes, objects, reachable funcs) = %v, want %v", c.v, got, want)
		}
	}
}

// TestSolveRepeats solves each budget-capped Table 1 baseline five times at
// the Table 1 budget and requires the same answer every time: the work
// counters, the problem size and every call site's callee list in order. A
// capped solve stops part-way, so what it holds depends on the order the
// solver took; that order must not come from Go's map iteration.
func TestSolveRepeats(t *testing.T) {
	type answer struct {
		props, nodes, objects, reachable, hwm int
		callees, evals                        string
	}
	solve := func(mod *ir.Module) answer {
		res := Analyze(mod, Options{Budget: 60_000})
		sites := make([]int, 0, len(res.Callees))
		for site := range res.Callees {
			sites = append(sites, int(site))
		}
		sort.Ints(sites)
		var b strings.Builder
		for _, site := range sites {
			fmt.Fprintf(&b, "%d:", site)
			for _, o := range res.Callees[ir.ID(site)] {
				fmt.Fprintf(&b, " %d=%s", o.ID, o)
			}
			b.WriteByte('\n')
		}
		return answer{res.Propagations, res.NumNodes, res.NumObjects, res.ReachableFuncs,
			res.WorklistHWM, b.String(), fmt.Sprint(res.EvalSites)}
	}
	for _, v := range []workload.JQueryVersion{workload.JQ10, workload.JQ11, workload.JQ13} {
		mod, err := ir.Compile("jquery.js", workload.JQuery(v))
		if err != nil {
			t.Fatal(err)
		}
		first := solve(mod)
		for i := 1; i < 5; i++ {
			if got := solve(mod); got != first {
				t.Fatalf("jQuery %s solve %d differs from solve 0:\n got %d props, %d nodes, %d objects, %d reachable, hwm %d\nwant %d props, %d nodes, %d objects, %d reachable, hwm %d\ncallees equal: %v, eval sites equal: %v",
					v, i, got.props, got.nodes, got.objects, got.reachable, got.hwm,
					first.props, first.nodes, first.objects, first.reachable, first.hwm,
					got.callees == first.callees, got.evals == first.evals)
			}
		}
	}
}
