package determinacy_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/workload"
)

// TestCoreCorpusDigest pins everything the instrumented run hands its
// clients over three corpora, one sha256 per corpus: each run's error,
// Stats, console output, every fact and the specialized source.
//
//   - jquery: the four Table 1 libraries × {DOM, determinate DOM} × {0, 8
//     handlers}, at the paper's 1000-flush cap.
//   - eval: the §5.2 eval corpus × {DOM, determinate DOM}, specialized
//     with eval elimination.
//   - generated: 200 workload.RandomProgram configurations × 2 seeds.
//
// A refactor of the analysis core that claims to change no output must
// leave testdata/corpus_digest.golden as it is. To re-record it after an
// intended change, delete it and run this test: it writes the missing file
// and fails.
func TestCoreCorpusDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jQuery, eval and generated corpora")
	}
	var b strings.Builder
	section := func(name string, fill func(h hash.Hash)) {
		h := sha256.New()
		fill(h)
		fmt.Fprintf(&b, "%s %x\n", name, h.Sum(nil))
	}
	section("jquery", func(h hash.Hash) {
		for _, v := range workload.JQueryVersions {
			for _, det := range []bool{false, true} {
				for _, handlers := range []int{0, 8} {
					fmt.Fprintf(h, "== jquery %s detdom=%v handlers=%d\n", v, det, handlers)
					digestRun(t, h, workload.JQuery(v), determinacy.Options{
						WithDOM: true, DeterministicDOM: det, RunHandlers: handlers, MaxFlushes: 1000,
					}, determinacy.SpecializeOptions{})
				}
			}
		}
	})
	section("eval", func(h hash.Hash) {
		for _, bm := range workload.EvalCorpus() {
			for _, det := range []bool{false, true} {
				fmt.Fprintf(h, "== eval %s detdom=%v\n", bm.Name, det)
				digestRun(t, h, bm.Source, determinacy.Options{
					WithDOM: true, DeterministicDOM: det, RunHandlers: 8, MaxFlushes: 1000,
				}, determinacy.SpecializeOptions{EliminateEval: true})
			}
		}
	})
	section("generated", func(h hash.Hash) {
		for i := range uint64(200) {
			cfg := workload.GenConfig{
				Seed:         i,
				MaxStmts:     20 + int(i%2)*10,
				IndetPercent: 20 + int(i%3)*10,
				WithForIn:    i%2 == 0,
				WithEval:     i%3 == 0,
				WithProto:    i%4 == 1,
				WithConsole:  i%5 == 2,
			}
			src := workload.RandomProgram(cfg)
			for _, seed := range []uint64{1, 2} {
				fmt.Fprintf(h, "== generated %+v seed=%d\n", cfg, seed)
				digestRun(t, h, src, determinacy.Options{Seed: seed}, determinacy.SpecializeOptions{})
			}
		}
	})
	checkGolden(t, "corpus_digest.golden", []byte(b.String()))
}

// digestRun analyzes src and writes the run's error, Stats, console output,
// facts and specialized source to w.
func digestRun(t *testing.T, w io.Writer, src string, opts determinacy.Options, sopts determinacy.SpecializeOptions) {
	t.Helper()
	var out strings.Builder
	opts.Out = &out
	res, err := determinacy.Analyze(src, opts)
	fmt.Fprintf(w, "err=%v\n", err)
	if res == nil {
		return
	}
	fmt.Fprintf(w, "stats=%+v partial=%v handlers=%d\n-- output --\n%s-- facts --\n", res.Stats, res.Partial, res.HandlersRan, out.String())
	for _, f := range res.Facts() {
		io.WriteString(w, f.String())
		io.WriteString(w, "\n")
	}
	spec, err := res.Specialize(sopts)
	if err != nil {
		fmt.Fprintf(w, "specialize err=%v\n", err)
		return
	}
	fmt.Fprintf(w, "-- specialized %+v --\n%s", spec.Stats, spec.Source)
}
