package determinacy_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"determinacy"
)

// TestLoopUnwindGolden pins what an indeterminate while loop leaves behind
// when its ÎF1 frame (rule ÎF1 applied to while(x){s} ≡ if(x){s;
// while(x){s}}, one frame for all the loop's indeterminate-true
// iterations) is marked at the loop exit: every fact, the for-in key order
// each program prints, and the run's counters. The instrumented run must
// also print what the concrete interpreter prints. The programs in
// testdata/loop_unwind cover a property created in the first iteration and
// rewritten, deleted in iteration k and re-added in k+1, deleted in the
// last iteration (a phantom), already maybe-absent or phantom before the
// loop, a loop inside a counterfactual and inside an indeterminate-true
// branch, a loop inside a loop (the reentrant, non-loop frame path), nested
// indeterminate loops, break and throw escapes, indeterminate branches in
// the body that rewrite what an earlier iteration wrote, and phantoms
// re-added after the loop.
//
// To re-record a golden, delete it and run this test: it writes the
// missing file and fails.
func TestLoopUnwindGolden(t *testing.T) {
	progs, err := filepath.Glob(filepath.Join("testdata", "loop_unwind", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Fatal("no programs in testdata/loop_unwind")
	}
	for _, path := range progs {
		name := strings.TrimSuffix(filepath.Base(path), ".js")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			res, err := determinacy.Analyze(string(src), determinacy.Options{Seed: 1, Out: &out})
			if err != nil {
				t.Fatal(err)
			}
			concrete, err := determinacy.Run(string(src), determinacy.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != concrete {
				t.Errorf("instrumented run printed %q, the concrete interpreter %q", out.String(), concrete)
			}
			var b strings.Builder
			b.WriteString("-- output --\n")
			b.WriteString(out.String())
			b.WriteString("-- facts --\n")
			for _, f := range res.Facts() {
				b.WriteString(f.String())
				b.WriteByte('\n')
			}
			s := res.Stats
			fmt.Fprintf(&b, "-- stats --\nsteps=%d heap_flushes=%d env_flushes=%d counterfactuals=%d cf_aborts=%d reasons=%v\n",
				s.Steps, s.HeapFlushes, s.EnvFlushes, s.Counterfacts, s.CFAborts, s.FlushReasons)
			checkGolden(t, filepath.Join("loop_unwind", name+".golden"), []byte(b.String()))
		})
	}
}
