package diffcheck

import (
	"strings"
	"testing"

	"determinacy/internal/workload"
)

func TestGenConfigForCyclesFeatures(t *testing.T) {
	var forIn, eval, proto, console int
	indet := map[int]int{}
	const n = 64
	for seed := uint64(0); seed < n; seed++ {
		cfg := GenConfigFor(seed)
		if cfg.Seed != seed {
			t.Fatalf("seed %d: cfg.Seed = %d", seed, cfg.Seed)
		}
		if cfg.WithForIn {
			forIn++
		}
		if cfg.WithEval {
			eval++
		}
		if cfg.WithProto {
			proto++
		}
		if cfg.WithConsole {
			console++
		}
		indet[cfg.IndetPercent]++
	}
	for name, c := range map[string]int{"forin": forIn, "eval": eval, "proto": proto, "console": console} {
		if c == 0 || c == n {
			t.Errorf("feature %s never toggles across %d seeds (on %d times)", name, n, c)
		}
	}
	for _, p := range []int{-1, 10, 25, 50} {
		if indet[p] == 0 {
			t.Errorf("indeterminacy rate %d never selected across %d seeds", p, n)
		}
	}
}

func TestResolveInputsDeterministic(t *testing.T) {
	a := resolveInputs(7, 3)
	b := resolveInputs(7, 3)
	for _, k := range []string{"a", "b", "c"} {
		av, aok := a[k]
		bv, bok := b[k]
		if !aok || !bok {
			t.Fatalf("input %q missing", k)
		}
		if av.Kind != bv.Kind {
			t.Errorf("input %q not deterministic: %v vs %v", k, av.Kind, bv.Kind)
		}
	}
	if resolutionSeed(7, 0) == resolutionSeed(7, 1) {
		t.Error("distinct resolutions must use distinct seeds")
	}
	if resolutionSeed(7, 0) == resolutionSeed(8, 0) {
		t.Error("distinct bases must use distinct seeds")
	}
}

func TestCheckSourceClean(t *testing.T) {
	checked, f := CheckSource(`
		var x = 1;
		var y = x + 2;
		var s = "" + y;
		if (Math.random() < 0.5) { x = x + 1; }
	`, 4, 1)
	if f != nil {
		t.Fatalf("clean program failed the oracle: %s", f)
	}
	if checked == 0 {
		t.Error("no determinate facts exercised")
	}
}

func TestCheckSourceRejectsAndCrashes(t *testing.T) {
	if _, f := CheckSource("var x = ;", 1, 1); f == nil || f.Kind != KindReject {
		t.Errorf("syntax error: got %v, want %s", f, KindReject)
	}
	if _, f := CheckSource("throw 1;", 1, 1); f == nil || f.Kind != KindCrash {
		t.Errorf("uncaught throw: got %v, want %s", f, KindCrash)
	}
	// The reduction budget turns non-terminating candidates into crashes.
	if _, f := checkSource("while (true) { var x = 1; }", 1, 1, reduceMaxSteps, reduceMaxFlushes); f == nil || f.Kind != KindCrash {
		t.Errorf("runaway loop under reduction budget: got %v, want %s", f, KindCrash)
	}
}

func TestSameFailurePredicate(t *testing.T) {
	crashes := SameFailure(KindCrash, 1, 1)
	if !crashes("throw 1;") {
		t.Error("predicate must accept a candidate with the same failure kind")
	}
	if crashes("var x = 1;") {
		t.Error("predicate must reject a clean candidate")
	}
	if crashes("var x = ;") {
		t.Error("predicate must reject a non-compiling candidate")
	}
}

func TestReduceMinimizes(t *testing.T) {
	src := "k1\nk2\na\nb\nc\nd\ne\nf\ng\nh\n"
	fails := func(cand string) bool {
		return strings.Contains(cand, "k1") && strings.Contains(cand, "k2")
	}
	got := Reduce(src, fails)
	if got != "k1\nk2\n" {
		t.Errorf("Reduce = %q, want the two key lines only", got)
	}
	// The reducer must never return a non-failing program.
	if !fails(got) {
		t.Error("reduced program no longer fails")
	}
}

func TestCheckSeedDeterministic(t *testing.T) {
	c1, f1 := CheckSeed(42, 3)
	c2, f2 := CheckSeed(42, 3)
	if c1 != c2 || (f1 == nil) != (f2 == nil) {
		t.Errorf("CheckSeed not deterministic: (%d,%v) vs (%d,%v)", c1, f1, c2, f2)
	}
}

func TestCampaignSmoke(t *testing.T) {
	rep := Run(Config{Seeds: 25, Resolutions: 3})
	if rep.Programs != 25 || rep.Resolutions != 3 {
		t.Errorf("report shape: %+v", rep)
	}
	if rep.FactsChecked == 0 {
		t.Error("campaign exercised no facts")
	}
	for i := range rep.Failures {
		t.Errorf("campaign failure: %s\nminimized:\n%s", rep.Failures[i].String(), rep.Failures[i].Minimized)
	}
}

// TestGeneratedProgramsCompile: every generator configuration must produce
// compilable programs — KindReject from CheckSeed flags a generator bug.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		src := workload.RandomProgram(GenConfigFor(seed))
		if _, f := CheckSource(src, 1, seed); f != nil && f.Kind == KindReject {
			t.Errorf("seed %d generated a non-compiling program: %s\n%s", seed, f.Detail, src)
		}
	}
}
