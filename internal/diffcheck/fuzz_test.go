package diffcheck

import (
	"os"
	"path/filepath"
	"testing"

	"determinacy/internal/workload"
)

// seedCorpus adds generated programs plus every checked-in reproducer, so
// the mutator starts from inputs that exercise the interesting machinery
// (indeterminate branches, for-in, eval, prototype mutation).
func seedCorpus(f *testing.F) {
	f.Helper()
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(workload.RandomProgram(GenConfigFor(seed)), seed)
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "*.js"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint64(1))
	}
}

// FuzzSoundness feeds arbitrary programs through the soundness oracle.
// Mutated inputs routinely fail to compile, throw, or blow the (tight)
// execution budget — those are skipped; what must never happen is an
// unsound fact, a cross-run fact conflict, or an interp/core divergence.
func FuzzSoundness(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string, base uint64) {
		_, fail := checkSource(src, 3, base, reduceMaxSteps, reduceMaxFlushes)
		if fail == nil {
			return
		}
		switch fail.Kind {
		case KindReject, KindCrash:
			t.Skip()
		default:
			t.Fatalf("oracle violation: %s", fail)
		}
	})
}

// FuzzInterpDiff drives the differential interp-vs-core comparison over
// fully determinate generated programs: with no indeterminate inputs at
// all, the two interpreters must agree exactly — on console output, final
// global state, and every recorded fact — and nothing may crash.
func FuzzInterpDiff(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := GenConfigFor(seed)
		cfg.IndetPercent = -1 // force full determinacy
		src := workload.RandomProgram(cfg)
		if _, fail := CheckSource(src, 1, seed); fail != nil {
			t.Fatalf("determinate program failed the oracle: %s\n%s", fail, src)
		}
	})
}
