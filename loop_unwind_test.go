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
// when its continuation frames (one per indeterminate-true iteration, rule
// ÎF1 applied to while(x){s} ≡ if(x){s; while(x){s}}) are unwound: every
// fact, the for-in key order each program prints, and the run's counters.
// The programs in testdata/loop_unwind cover a property created in the
// first iteration and rewritten, deleted in iteration k and re-added in
// k+1, deleted in the last iteration (a phantom), already maybe-absent or
// phantom before the loop, a loop inside a counterfactual and inside an
// indeterminate-true branch, a loop inside a loop (the reentrant, non-loop
// frame path), nested indeterminate loops, and break and throw escapes.
//
// The goldens were recorded with the per-frame cascade that marked every
// frame and merged its journal into the next outer frame; the unwind must
// reproduce it byte for byte. To re-record one, delete it and run this
// test: it writes the missing file and fails.
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
