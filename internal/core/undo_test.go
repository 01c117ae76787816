package core_test

import (
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/workload"
)

// TestCounterfactualUndoInvariant: wrapping arbitrary generated code in an
// indeterminate-false branch must leave the program's observable state
// exactly as if the branch body did not exist — counterfactual execution
// runs it and undoes every effect. We compare the final global state of
//
//	<prefix>; if (Math.random() > 2) { <body> } <suffix-observations>
//
// under the instrumented interpreter against the concrete interpreter
// running the same program (which skips the branch outright).
func TestCounterfactualUndoInvariant(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		prefix := workload.RandomProgram(workload.GenConfig{Seed: 3000 + seed, MaxStmts: 10})
		body := workload.RandomProgram(workload.GenConfig{Seed: 4000 + seed, MaxStmts: 8, NamePrefix: "cf"})
		// The body fragment's identifiers carry a distinct prefix so its
		// hoisted function declarations cannot collide with the prefix
		// program's.
		src := prefix + "\nif (Math.random() > 2) {\n" + body + "\n}\n"

		cmod, err := ir.Compile("cf.js", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		it := interp.New(cmod, interp.Options{Seed: 9, Inputs: inputs()})
		if _, err := it.Run(); err != nil {
			t.Fatalf("seed %d concrete: %v\n%s", seed, err, src)
		}

		imod, err := ir.Compile("cf.js", src)
		if err != nil {
			t.Fatal(err)
		}
		a := core.New(imod, facts.NewStore(), core.Options{Seed: 9, Inputs: inputs()})
		if _, err := a.Run(); err != nil {
			t.Fatalf("seed %d instrumented: %v\n%s", seed, err, src)
		}

		// Every concrete global must exist with the same string rendering.
		for _, k := range it.Global.OwnKeys() {
			if strings.HasPrefix(k, "__") || isRuntimeGlobal(k) {
				continue
			}
			cv, _ := it.Global.Get(k)
			iv, found, _ := a.LookupGlobal(k)
			if !found {
				t.Errorf("seed %d: global %s lost after counterfactual", seed, k)
				continue
			}
			want := interp.ToString(cv)
			got := a.DisplayValue(iv)
			if want != got {
				t.Errorf("seed %d: global %s: concrete %q vs instrumented %q\nprogram:\n%s",
					seed, k, want, got, src)
			}
		}
	}
}

func inputs() map[string]interp.Value {
	return map[string]interp.Value{
		"a": interp.NumberVal(3),
		"b": interp.NumberVal(-2),
		"c": interp.StringVal("in"),
	}
}

func isRuntimeGlobal(k string) bool {
	switch k {
	case "globalThis", "undefined", "NaN", "Infinity", "console", "Math",
		"Object", "Function", "Array", "String", "Number", "Boolean",
		"Error", "TypeError", "ReferenceError", "RangeError", "SyntaxError",
		"parseInt", "parseFloat", "isNaN", "isFinite", "eval", "Date",
		"alert", "print":
		return true
	}
	return false
}

// TestWorkloadOutputEquivalence: the instrumented interpreter must be
// semantically transparent on the real workloads — console output under
// identical seeds matches the concrete interpreter, eval corpus included.
func TestWorkloadOutputEquivalence(t *testing.T) {
	var programs []struct{ name, src string }
	for _, b := range workload.EvalCorpus() {
		if b.Runnable {
			programs = append(programs, struct{ name, src string }{b.Name, b.Source})
		}
	}
	for _, p := range programs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			concrete := runConcreteOut(t, p.src)
			instrumented := runInstrumentedOut(t, p.src)
			if concrete != instrumented {
				t.Errorf("output divergence:\nconcrete:\n%s\ninstrumented:\n%s", concrete, instrumented)
			}
		})
	}
}

func runConcreteOut(t *testing.T, src string) string {
	t.Helper()
	mod, err := ir.Compile("w.js", src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	it := interp.New(mod, interp.Options{Out: &buf, Seed: 11})
	dom.Install(it, dom.NewDocument(dom.Options{}))
	if _, err := it.Run(); err != nil {
		t.Fatalf("concrete: %v", err)
	}
	return buf.String()
}

func runInstrumentedOut(t *testing.T, src string) string {
	t.Helper()
	mod, err := ir.Compile("w.js", src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	a := core.New(mod, facts.NewStore(), core.Options{Out: &buf, Seed: 11})
	dom.InstallCore(a, dom.NewDocument(dom.Options{}), false)
	if _, err := a.Run(); err != nil {
		t.Fatalf("instrumented: %v", err)
	}
	return buf.String()
}
