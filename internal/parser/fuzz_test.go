package parser_test

import (
	"testing"

	"determinacy/internal/ast"
	"determinacy/internal/ir"
	"determinacy/internal/parser"
	"determinacy/internal/workload"
)

// FuzzParseAndLower feeds arbitrary bytes through the full front end:
// parse, print, reparse, lower. Run with go test -fuzz=FuzzParseAndLower.
func FuzzParseAndLower(f *testing.F) {
	f.Add("var x = 1 + 2;")
	f.Add(`function f(a) { return a ? f(a - 1) : 0; }`)
	f.Add(`for (var k in {a: 1}) { o[k] = eval("k"); }`)
	f.Add(`try { throw 1; } catch (e) {} finally {}`)
	for seed := uint64(0); seed < 5; seed++ {
		f.Add(workload.RandomProgram(workload.GenConfig{Seed: seed}))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.js", src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := ast.Print(prog)
		reparsed, err := parser.Parse("printed.js", printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
		if again := ast.Print(reparsed); again != printed {
			t.Fatalf("print not a fixpoint:\nfirst:  %q\nsecond: %q", printed, again)
		}
		if _, err := ir.Lower(prog); err != nil {
			// Lowering may reject valid parses (e.g. switch fall-through);
			// it must not panic.
			return
		}
	})
}

// FuzzLower targets the lowering phase and the module invariants the rest
// of the pipeline leans on: dense instruction registration, consistent
// index maps, panic-free printing, and a fresh run layer answering exactly
// as its base module. The seed corpus is checked in under
// testdata/fuzz/FuzzLower. Run with go test -fuzz=FuzzLower.
func FuzzLower(f *testing.F) {
	f.Add("var x = 1;")
	f.Add(`function outer() { function inner(a) { return a + 1; } return inner(2); } outer();`)
	f.Add(`while (x < 10) { x = x + 1; if (x == 5) { break; } else { continue; } }`)
	f.Add(`var o = {a: 1, b: "two"}; for (var k in o) { delete o[k]; }`)
	f.Add(`try { throw {code: 7}; } catch (e) { var c = e.code; } finally { done = true; }`)
	f.Add(`var f = function g(n) { return n ? g(n - 1) : 0; }; f(3);`)
	f.Add(`var r = eval("1 + " + Math.random());`)
	for seed := uint64(40); seed < 44; seed++ {
		f.Add(workload.RandomProgram(workload.GenConfig{Seed: seed, WithForIn: true}))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.js", src)
		if err != nil {
			return
		}
		mod, err := ir.Lower(prog)
		if err != nil {
			return // rejection is fine; panics and invariant breaks are not
		}

		funcs := mod.Funcs()
		if len(funcs) == 0 || mod.Top() != funcs[0] {
			t.Fatalf("module has no coherent top-level function")
		}
		for i, fn := range funcs {
			if fn == nil || fn.Body == nil {
				t.Fatalf("function %d is nil or bodyless", i)
			}
			if fn.Index != i {
				t.Fatalf("function %q at position %d has Index %d", fn.Name, i, fn.Index)
			}
		}

		seen := 0
		mod.ForEachInstr(func(in ir.Instr, fn *ir.Function) {
			seen++
			id := in.IID()
			if id < 0 || int(id) >= mod.NumInstrs {
				t.Fatalf("instruction ID %d outside [0, NumInstrs=%d)", id, mod.NumInstrs)
			}
			if fn == nil {
				t.Fatalf("instruction %d has no enclosing function", id)
			}
			if got := mod.InstrAt(id); got != in {
				t.Fatalf("InstrAt(%d) does not round-trip", id)
			}
			if got := mod.FuncOf(id); got != fn {
				t.Fatalf("FuncOf(%d) disagrees with ForEachInstr", id)
			}
		})
		if seen > mod.NumInstrs {
			t.Fatalf("%d registered instructions exceed NumInstrs %d", seen, mod.NumInstrs)
		}

		if s := mod.String(); len(s) == 0 && seen > 0 {
			t.Fatalf("module with %d instructions printed empty", seen)
		}

		layer := mod.Layer()
		if layer.NumInstrs != mod.NumInstrs || len(layer.Funcs()) != len(funcs) {
			t.Fatalf("fresh layer shape differs: %d/%d instrs, %d/%d funcs",
				layer.NumInstrs, mod.NumInstrs, len(layer.Funcs()), len(funcs))
		}
		for id := 0; id < mod.NumInstrs; id++ {
			if layer.InstrAt(ir.ID(id)) != mod.InstrAt(ir.ID(id)) ||
				layer.FuncOf(ir.ID(id)) != mod.FuncOf(ir.ID(id)) ||
				layer.IsReentrant(ir.ID(id)) != mod.IsReentrant(ir.ID(id)) {
				t.Fatalf("layer diverges from its base at instruction %d", id)
			}
		}
		if layer.String() != mod.String() {
			t.Fatal("fresh layer prints differently from its base")
		}
	})
}
