package progcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/workload"
)

// evalProg lowers eval code at run time in every way the interpreters
// reach LowerEval: a direct call, a call through the caller's scope, a
// repeated source in a loop, a source that fails to lower (its instruction
// IDs stay used), and an indirect call.
const evalProg = `
var base = 40;
var two = eval("base + 2");
function scale(k) { var factor = 3; return eval("factor * k"); }
var nine = scale(3);
var sum = 0;
for (var i = 0; i < 3; i++) { sum = sum + eval("i * 10"); }
try { eval("function g() {} switch (base) { case 1: base++; case 2: base--; }"); } catch (e) {}
var after = eval("(function (n) { return n + base; })")(2);
var indirect = eval;
console.log(two, nine, sum, after, indirect("base * 2"));
`

// layerIDs lists the instructions a run lowered at run time, numbered
// from static on, with the index of the function holding each.
func layerIDs(static int, layer *ir.Module) []string {
	var out []string
	layer.ForEachInstr(func(in ir.Instr, fn *ir.Function) {
		if int(in.IID()) >= static {
			out = append(out, fmt.Sprintf("%d@%d", in.IID(), fn.Index))
		}
	})
	return out
}

// runResult is what one core run and one concrete run of a module give.
type runResult struct {
	facts, coreOut, coreErr string
	out, err                string
	coreLayer, layer        []string
}

func runBoth(mod *ir.Module) runResult {
	var r runResult
	static := mod.NumInstrs
	store := facts.NewStore()
	var coreOut, out, enc bytes.Buffer
	a := core.New(mod, store, core.Options{Seed: 3, Out: &coreOut})
	if _, err := a.Run(); err != nil {
		r.coreErr = err.Error()
	}
	store.Encode(&enc)
	r.facts, r.coreOut, r.coreLayer = enc.String(), coreOut.String(), layerIDs(static, a.Mod)
	it := interp.New(mod, interp.Options{Seed: 3, Out: &out})
	if _, err := it.Run(); err != nil {
		r.err = err.Error()
	}
	r.out, r.layer = out.String(), layerIDs(static, it.Mod)
	return r
}

func sameResult(a, b runResult) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestRunsLeaveSharedModuleUnchanged runs an eval-lowering program twice
// on one cached module in each interpreter: the module must answer exactly
// as before, and both runs must lower their eval code to the same IDs.
func TestRunsLeaveSharedModuleUnchanged(t *testing.T) {
	c := New(0)
	_, mod, err := c.Compile("eval.js", evalProg)
	if err != nil {
		t.Fatal(err)
	}
	nFuncs, nInstrs := len(mod.Funcs()), mod.NumInstrs
	probe := nInstrs + 200 // past every ID the runs allocate
	before := make([]ir.Instr, probe)
	for id := range before {
		before[id] = mod.InstrAt(ir.ID(id))
	}

	first := runBoth(mod)
	if len(first.coreLayer) == 0 || len(first.layer) == 0 {
		t.Fatalf("runs lowered no eval code: core %v, concrete %v", first.coreLayer, first.layer)
	}
	if first.coreErr != "" || first.err != "" || first.out != "42 9 30 42 80\n" {
		t.Fatalf("run failed: core %q, concrete %q, output %q", first.coreErr, first.err, first.out)
	}
	second := runBoth(mod)
	if !sameResult(first, second) {
		t.Fatalf("second run on the shared module differs:\nfirst  %v\nsecond %v", first, second)
	}

	if len(mod.Funcs()) != nFuncs || mod.NumInstrs != nInstrs {
		t.Fatalf("module grew: %d funcs / %d instrs, want %d / %d", len(mod.Funcs()), mod.NumInstrs, nFuncs, nInstrs)
	}
	for id, want := range before {
		if mod.InstrAt(ir.ID(id)) != want {
			t.Fatalf("InstrAt(%d) changed after the runs", id)
		}
	}
}

// TestConcurrentRunsShareModule runs core and the concrete interpreter
// from many goroutines over eval-corpus bodies whose modules come from one
// cache: every run must give the facts and output of a serial run on a
// private compile. Run under -race in CI.
func TestConcurrentRunsShareModule(t *testing.T) {
	var srcs []string
	for _, b := range workload.EvalCorpus() {
		if b.Runnable {
			srcs = append(srcs, b.Source)
		}
	}
	want := make([]runResult, len(srcs))
	shape := make([]string, len(srcs))
	for i, src := range srcs {
		mod := ir.MustCompile(fmt.Sprintf("p%d.js", i), src)
		shape[i] = fmt.Sprint(len(mod.Funcs()), mod.NumInstrs)
		want[i] = runBoth(mod)
	}

	c := New(0)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range srcs {
				i := (k + w*3) % len(srcs)
				_, mod, err := c.Compile(fmt.Sprintf("p%d.js", i), srcs[i])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := runBoth(mod); !sameResult(got, want[i]) {
					t.Errorf("worker %d, body %d: shared-module run differs from a serial private run:\ngot  %v\nwant %v",
						w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Misses != int64(len(srcs)) {
		t.Errorf("misses = %d, want one compile per body (%d)", s.Misses, len(srcs))
	}
	for i, src := range srcs {
		_, mod, _ := c.Compile(fmt.Sprintf("p%d.js", i), src)
		if got := fmt.Sprint(len(mod.Funcs()), mod.NumInstrs); got != shape[i] {
			t.Errorf("body %d: shared module has %s functions/instructions after the runs, want %s", i, got, shape[i])
		}
	}
}
