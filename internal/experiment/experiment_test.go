package experiment_test

import (
	"fmt"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/dom"
	"determinacy/internal/experiment"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/workload"
)

// TestTable1Shape pins the reproduced Table 1 against the paper's published
// outcomes: which configurations complete, and the relative magnitude of
// the dynamic analysis' heap flush counts.
//
//	Version  Baseline  Spec        Spec+DetDOM     (paper)
//	1.0      ✗         ✓ (82)      ✓ (2)
//	1.1      ✗         ✗ (107)     ✓ (4)
//	1.2      ✓         ✓ (>1000)   ✓ (0)
//	1.3      ✗         ✗ (>1000)   ✗ (>1000)
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 takes a few seconds")
	}
	rows := experiment.RunTable1(experiment.Config{})
	byVersion := map[workload.JQueryVersion]experiment.Table1Row{}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Version, r.Err)
		}
		byVersion[r.Version] = r
	}

	type want struct {
		base, spec, detdom bool // completed?
	}
	wants := map[workload.JQueryVersion]want{
		workload.JQ10: {base: false, spec: true, detdom: true},
		workload.JQ11: {base: false, spec: false, detdom: true},
		workload.JQ12: {base: true, spec: true, detdom: true},
		workload.JQ13: {base: false, spec: false, detdom: false},
	}
	for v, w := range wants {
		r := byVersion[v]
		if r.Baseline.Completed != w.base {
			t.Errorf("%s baseline completed=%v, paper has %v", v, r.Baseline.Completed, w.base)
		}
		if r.Spec.Completed != w.spec {
			t.Errorf("%s spec completed=%v, paper has %v", v, r.Spec.Completed, w.spec)
		}
		if r.DetDOM.Completed != w.detdom {
			t.Errorf("%s spec+detdom completed=%v, paper has %v", v, r.DetDOM.Completed, w.detdom)
		}
	}

	// Flush-count shape (not absolute values): DetDOM drastically reduces
	// flushes for 1.0/1.1; 1.2 and 1.3 hit the cap without DetDOM; 1.3
	// stays capped even with it; 1.2 reaches (near) zero with it.
	r10, r11, r12, r13 := byVersion[workload.JQ10], byVersion[workload.JQ11], byVersion[workload.JQ12], byVersion[workload.JQ13]
	if r10.DetDOM.Flushes >= r10.Spec.Flushes/10 {
		t.Errorf("1.0: DetDOM flushes %d not ≪ Spec flushes %d", r10.DetDOM.Flushes, r10.Spec.Flushes)
	}
	if r11.DetDOM.Flushes >= r11.Spec.Flushes/10 {
		t.Errorf("1.1: DetDOM flushes %d not ≪ Spec flushes %d", r11.DetDOM.Flushes, r11.Spec.Flushes)
	}
	if !r12.Spec.FlushLimit {
		t.Errorf("1.2: Spec should hit the flush cap, got %d", r12.Spec.Flushes)
	}
	if r12.DetDOM.Flushes > 4 {
		t.Errorf("1.2: DetDOM flushes should be ~0, got %d", r12.DetDOM.Flushes)
	}
	if !r13.Spec.FlushLimit || !r13.DetDOM.FlushLimit {
		t.Errorf("1.3: both Spec and DetDOM should hit the flush cap")
	}

	// A run stopped at the flush cap is sealed with one final
	// "partial-seal" flush, which Table 1 leaves out: a capped cell
	// reports the 1001 flushes its execution made, printed ">1000".
	for _, c := range []struct {
		v      workload.JQueryVersion
		detDOM bool
		cell   experiment.Table1Cell
	}{{workload.JQ12, false, r12.Spec}, {workload.JQ13, false, r13.Spec}, {workload.JQ13, true, r13.DetDOM}} {
		name := fmt.Sprintf("%s/detdom=%v", c.v, c.detDOM)
		if c.cell.Flushes != 1001 || c.cell.FlushStr() != ">1000" {
			t.Errorf("%s: capped cell reports %d flushes (%s), want 1001 (>1000)", name, c.cell.Flushes, c.cell.FlushStr())
		}
		dyn, err := experiment.RunDynamic(workload.JQuery(c.v), c.detDOM, experiment.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seals := dyn.Stats.FlushReasons["partial-seal"]; seals != 1 || dyn.Degraded != determinacy.DegradeFlushCap {
			t.Errorf("%s: capped run has %d partial-seal flushes, degraded %q; want 1, %q",
				name, seals, dyn.Degraded, determinacy.DegradeFlushCap)
		}
		if dyn.Stats.HeapFlushes != c.cell.Flushes+1 {
			t.Errorf("%s: run made %d heap flushes, cell reports %d", name, dyn.Stats.HeapFlushes, c.cell.Flushes)
		}
	}

	// The headline speedup: specialization cuts the points-to work on 1.0
	// by a large factor.
	if r10.Spec.Propagations*4 >= r10.Baseline.Propagations {
		t.Errorf("1.0: specialized points-to (%d) not clearly cheaper than baseline (%d)",
			r10.Spec.Propagations, r10.Baseline.Propagations)
	}
}

// TestEvalStudyCounts pins the §5.2 reproduction against the paper's
// numbers: 28 benchmarks, 24 runnable, 14 fully specialized (20 with the
// determinate-DOM assumption), and the failure taxonomy 1 indeterminate
// argument / 4 not covered / 1 indeterminate callee / 4 loop bounds.
func TestEvalStudyCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("eval study takes a few seconds")
	}
	s := experiment.RunEvalStudy(false, experiment.Config{})
	if s.Total != 28 {
		t.Errorf("total benchmarks = %d, want 28", s.Total)
	}
	if s.Runnable != 24 {
		t.Errorf("runnable = %d, want 24 (paper disregards 4)", s.Runnable)
	}
	if s.Handled != 14 {
		t.Errorf("fully specialized = %d, want 14", s.Handled)
	}
	wantReasons := map[string]int{
		"indeterminate-argument":   1,
		"not-covered":              4,
		"indeterminate-callee":     1,
		"indeterminate-loop-bound": 4,
	}
	for reason, n := range wantReasons {
		if s.ByReason[reason] != n {
			t.Errorf("failures[%s] = %d, want %d", reason, s.ByReason[reason], n)
		}
	}
	if s.OnlyOurs < 6 {
		t.Errorf("handled beyond the syntactic baseline = %d, want >= 6 (paper: 6)", s.OnlyOurs)
	}

	det := experiment.RunEvalStudy(true, experiment.Config{})
	if det.Handled != 20 {
		t.Errorf("fully specialized with DetDOM = %d, want 20", det.Handled)
	}
	for _, o := range append(s.Benchmarks, det.Benchmarks...) {
		if o.Err != nil {
			t.Errorf("benchmark %s errored: %v", o.Name, o.Err)
		}
	}
}

// TestSpecializedJQueryStillRuns checks semantic preservation end to end:
// for each of Table 1's dynamic configurations, the original workload and
// its specialization must both run without error under the concrete
// interpreter with the DOM and 8 event handlers, and leave the same
// non-callable globals behind. In -short mode only jQuery 1.0 without the
// determinate-DOM assumption runs.
func TestSpecializedJQueryStillRuns(t *testing.T) {
	versions, detDOMs := workload.JQueryVersions, []bool{false, true}
	if testing.Short() {
		versions, detDOMs = []workload.JQueryVersion{workload.JQ10}, []bool{false}
	}
	finalState := func(name, src string) map[string]string {
		t.Helper()
		mod, err := ir.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		// The experiments' fixed Date.now; the seed is Config's zero value.
		it := interp.New(mod, interp.Options{Now: 1371161337000})
		binding := dom.Install(it, dom.NewDocument(dom.Options{}))
		if _, err := it.Run(); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if _, err := binding.RunHandlers(8); err != nil {
			t.Fatalf("%s: handlers: %v", name, err)
		}
		out := map[string]string{}
		for _, k := range it.Global.OwnKeys() {
			v, _ := it.Global.Get(k)
			if v.IsCallable() {
				continue // clones add function globals by design
			}
			out[k] = interp.ToString(v)
		}
		return out
	}
	for _, v := range versions {
		for _, detDOM := range detDOMs {
			name := fmt.Sprintf("%s/detdom=%v", v, detDOM)
			src := workload.JQuery(v)
			dyn, err := experiment.RunDynamic(src, detDOM, experiment.Config{})
			if err != nil {
				t.Fatalf("%s: dynamic: %v", name, err)
			}
			spec, err := dyn.Specialize(determinacy.SpecializeOptions{})
			if err != nil {
				t.Fatalf("%s: specialize: %v", name, err)
			}
			orig := finalState("jquery.js", src)
			got := finalState("jquery-spec.js", spec.Source)
			if len(orig) == 0 {
				t.Errorf("%s: no non-callable globals to compare", name)
			}
			for k, want := range orig {
				if g, ok := got[k]; !ok || g != want {
					t.Errorf("%s: global %s = %q after specialization (present %v), original %q", name, k, g, ok, want)
				}
			}
			for k := range got {
				if _, ok := orig[k]; !ok {
					t.Errorf("%s: specialization adds global %s", name, k)
				}
			}
			t.Logf("%s: %d non-callable globals compared", name, len(orig))
		}
	}
}

func TestFormatters(t *testing.T) {
	rows := []experiment.Table1Row{{
		Version:  workload.JQ10,
		Baseline: experiment.Table1Cell{Completed: false, Propagations: 60001},
		Spec:     experiment.Table1Cell{Completed: true, Flushes: 281},
		DetDOM:   experiment.Table1Cell{Completed: true, Flushes: 1},
	}}
	out := experiment.FormatTable1(rows)
	for _, want := range []string{"1.0", "FAIL", "ok (281)", "ok (1)"} {
		if !containsStr(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	study := &experiment.EvalStudy{
		Total: 28, Runnable: 24, Handled: 14, OnlyOurs: 7,
		ByReason: map[string]int{"not-covered": 4},
		Benchmarks: []experiment.EvalOutcome{
			{Name: "x", Runnable: true, Handled: true},
			{Name: "y", Runnable: true, Handled: false, Reason: "not-covered"},
			{Name: "z", Runnable: false},
		},
	}
	sout := experiment.FormatEvalStudy(study)
	for _, want := range []string{"14 of 24", "not-covered", "excluded (not runnable)", "handled"} {
		if !containsStr(sout, want) {
			t.Errorf("study missing %q:\n%s", want, sout)
		}
	}

	cell := experiment.Table1Cell{FlushLimit: true, Flushes: 1001}
	if cell.FlushStr() != ">1000" {
		t.Errorf("FlushStr = %q", cell.FlushStr())
	}
}

func containsStr(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
