package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

func TestStepBudgetInstrumented(t *testing.T) {
	mod := ir.MustCompile("t.js", `while (true) { var x = 1; }`)
	a := core.New(mod, facts.NewStore(), core.Options{MaxSteps: 500})
	_, err := a.Run()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestStackLimitInstrumented(t *testing.T) {
	mod := ir.MustCompile("t.js", `function f() { return f(); } f();`)
	a := core.New(mod, facts.NewStore(), core.Options{MaxDepth: 50})
	_, err := a.Run()
	if !errors.Is(err, core.ErrStack) {
		t.Fatalf("want ErrStack, got %v", err)
	}
}

func TestStackLimitConcrete(t *testing.T) {
	mod := ir.MustCompile("t.js", `function f() { return f(); } f();`)
	it := interp.New(mod, interp.Options{MaxDepth: 50})
	_, err := it.Run()
	if !errors.Is(err, interp.ErrStack) {
		t.Fatalf("want ErrStack, got %v", err)
	}
}

func TestBudgetInsideCounterfactualContained(t *testing.T) {
	// A counterfactual that would loop forever: the step budget fires
	// inside it; the analysis contains the failure conservatively instead
	// of crashing, and execution after the branch continues... the budget
	// error aborts the run, but the facts before it remain.
	mod := ir.MustCompile("t.js", `
		var before = 1 + 1;
		if (Math.random() > 2) {
			while (true) { var burn = 0; }
		}
		var after = 2 + 2;
	`)
	store := facts.NewStore()
	a := core.New(mod, store, core.Options{MaxSteps: 5000})
	_, err := a.Run()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if store.Len() == 0 {
		t.Error("facts before the budget stop must survive")
	}
}

// TestIndetLoopBudgetTerminatesPromptly: a non-terminating loop under an
// indeterminate condition pushes one nested branch frame per iteration, and
// after the step budget fires every frame is popped, marked, and merged into
// its parent. That finish path must stay linear in the distinct locations
// written: wholesale journal concatenation made it quadratic in iteration
// count, hanging the analysis for minutes after ErrBudget. (Found by
// detfuzz, fuzz crasher 82c225e8a0038142.)
func TestIndetLoopBudgetTerminatesPromptly(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var i = 0;
		var o = {a: 1, b: 2};
		while (Math.random() < 2) {
			i = i + 1;
			o.c = i;
			delete o.a;
			o.a = i;
		}
	`)
	a := core.New(mod, facts.NewStore(), core.Options{MaxSteps: 300000, MaxFlushes: 1 << 20})
	start := time.Now()
	_, err := a.Run()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second*raceTimeMul {
		t.Fatalf("budget-aborted loop took %v to unwind", elapsed)
	}
}

// TestIndetLoopUnwindLinearAlloc: a loop under an indeterminate condition
// that writes a new location every iteration must cost memory linear in
// the iterations. Marking its writes must not re-copy earlier iterations'
// writes once per iteration, which made doubling the iterations quadruple
// the bytes allocated.
func TestIndetLoopUnwindLinearAlloc(t *testing.T) {
	alloc := func(n int) uint64 {
		mod := ir.MustCompile("t.js", fmt.Sprintf(`
			var i = 0;
			var o = {};
			while (Math.random() < 2) {
				i = i + 1;
				o["k" + i] = i;
				if (i > %d) break;
			}
		`, n))
		a := core.New(mod, facts.NewStore(), core.Options{MaxFlushes: 1 << 20})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := a.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1000), alloc(2000)
	t.Logf("1000 iterations allocated %d bytes, 2000 allocated %d", small, large)
	if large*2 > small*5 {
		t.Errorf("2000 iterations allocated %d bytes, 1000 allocated %d: ratio %.2f, want at most 2.5",
			large, small, float64(large)/float64(small))
	}
}

func TestThrownErrorSurfacesValue(t *testing.T) {
	mod := ir.MustCompile("t.js", `throw new TypeError("kaput");`)
	a := core.New(mod, facts.NewStore(), core.Options{})
	_, err := a.Run()
	var th *core.Thrown
	if !errors.As(err, &th) {
		t.Fatalf("want Thrown, got %T %v", err, err)
	}
	if s := a.DisplayValue(th.Val); !strings.Contains(s, "kaput") {
		t.Errorf("thrown value renders as %q", s)
	}
}

func TestMuJSLocalsOptionSkipsEnvFlush(t *testing.T) {
	src := `(function(){
		var local = 7;
		var f = Math.random() < 2 ? function(){ return 1; } : function(){ return 2; };
		f();
		var probe = local;
	})();`
	// Default: the indeterminate call flushes environments too.
	mod, store, a := analyze(t, src, core.Options{})
	if a.Stats().EnvFlushes == 0 {
		t.Error("default mode must flush environments on indeterminate calls")
	}
	wantDet(t, oneFactAtLine(t, mod, store, 5, loadVar("local")), mod, false)

	// µJS-faithful mode keeps the local determinate (heap-only flush).
	modM, storeM, aM := analyze(t, src, core.Options{MuJSLocals: true})
	if aM.Stats().EnvFlushes != 0 {
		t.Error("µJS mode must not flush environments")
	}
	wantNum(t, oneFactAtLine(t, modM, storeM, 5, loadVar("local")), modM, 7)
}

func TestFactsNilStoreRunsForStatsOnly(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var fns = [function(){return 1;}, function(){return 2;}];
		fns[Math.random() < 0.5 ? 0 : 1]();
	`)
	a := core.New(mod, nil, core.Options{})
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().HeapFlushes == 0 {
		t.Error("stats must accumulate without a fact store")
	}
}
