// Differential tests for the batch engine's determinism contract: every
// user-visible product of the pipeline — analysis facts, merged statistics,
// formatted experiment tables — must be byte-identical whether computed
// serially (workers=1) or on a parallel pool. The tests live in an external
// test package so they can drive the public determinacy API, which itself
// sits on top of internal/batch.
package batch_test

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"determinacy"
	"determinacy/internal/experiment"
	"determinacy/internal/workload"
)

// parallelWorkers is the worker count differential runs compare against the
// serial path. CI pins it via BATCH_WORKERS=8; the default oversubscribes a
// small machine on purpose so job claiming interleaves even under -race.
func parallelWorkers(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("BATCH_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("BATCH_WORKERS=%q: want an integer >= 2", s)
		}
		return n
	}
	return 8
}

// figure2 is the paper's Figure 2 program as used by examples/quickstart —
// the canonical mix of determinate and indeterminate facts, heap flushes,
// and counterfactual execution.
const figure2 = `(function() {
function checkf(p) {
	if (p.f < 32)
		setg(p, 42);
}
function setg(r, v) {
	r.g = v;
}
var x = { f : 23 },
	y = { f : Math.random()*100 };
var probe_xf = x.f;
var probe_yf = y.f;
checkf(x);
var probe_xg = x.g;
checkf(y);
var probe_yg = y.g;
(y.f > 50 ? checkf : setg)(x, 72);
var probe_xg2 = x.g;
var z = { f: x.g - 16, h: true };
checkf(z);
var probe_zg = z.g;
var probe_zh = z.h;
})();`

// resultFingerprint reduces a Result to its deterministic observable
// surface. Fact values render through Fact.String, which shows "?" for
// indeterminate facts — their retained sample value is first-merge-wins and
// deliberately outside the determinism contract.
func resultFingerprint(res *determinacy.Result) []string {
	var fp []string
	fp = append(fp, fmt.Sprintf("facts=%d determinate=%d handlers=%d stopped=%v",
		res.NumFacts(), res.NumDeterminate(), res.HandlersRan, res.Stopped))
	for _, f := range res.Facts() {
		fp = append(fp, f.String())
	}
	return fp
}

func diffFingerprints(t *testing.T, label string, serial, parallel []string) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d serial lines vs %d parallel", label, len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("%s: line %d differs\n  serial:   %s\n  parallel: %s",
				label, i, serial[i], parallel[i])
		}
	}
}

// TestDifferentialAnalyzeRuns sweeps representative programs — the paper's
// Figure 2, eval-corpus benchmarks, a jQuery workload, and generated random
// programs — through multi-seed AnalyzeRuns serially and in parallel, and
// requires identical facts and merged statistics.
func TestDifferentialAnalyzeRuns(t *testing.T) {
	workers := parallelWorkers(t)
	seeds := []uint64{1, 2, 3, 4, 5, 6}

	type program struct {
		name string
		src  string
		opts determinacy.Options
	}
	progs := []program{
		{name: "figure2", src: figure2, opts: determinacy.Options{MuJSLocals: true}},
	}
	corpus := workload.EvalCorpus()
	limit := len(corpus)
	if testing.Short() {
		limit = 4
	}
	for i, b := range corpus {
		if i >= limit {
			break
		}
		progs = append(progs, program{
			name: "corpus/" + b.Name,
			src:  b.Source,
			opts: determinacy.Options{WithDOM: true, RunHandlers: 8, MaxFlushes: 1000},
		})
	}
	if !testing.Short() {
		progs = append(progs, program{
			name: "jquery/" + string(workload.JQ10),
			src:  workload.JQuery(workload.JQ10),
			opts: determinacy.Options{WithDOM: true, RunHandlers: 8, MaxFlushes: 1000},
		})
		for i := 0; i < 3; i++ {
			progs = append(progs, program{
				name: fmt.Sprintf("random/%d", i),
				src:  workload.RandomProgram(workload.GenConfig{Seed: uint64(100 + i)}),
			})
		}
	}

	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			serOpts := p.opts
			serOpts.Workers = 1
			parOpts := p.opts
			parOpts.Workers = workers

			prog, err := determinacy.Compile(p.name, p.src)
			if err != nil {
				t.Fatal(err)
			}
			ser, serErr := determinacy.AnalyzeRuns(prog, serOpts, seeds...)
			par, parErr := determinacy.AnalyzeRuns(prog, parOpts, seeds...)
			// Some corpus programs are deliberately non-runnable (missing
			// libraries, unsupported DOM calls); the contract there is that
			// both paths fail with the same error.
			if serErr != nil || parErr != nil {
				if fmt.Sprint(serErr) != fmt.Sprint(parErr) {
					t.Fatalf("error divergence:\n  serial:   %v\n  parallel: %v", serErr, parErr)
				}
				return
			}
			diffFingerprints(t, p.name, resultFingerprint(ser), resultFingerprint(par))
			if !reflect.DeepEqual(ser.Stats, par.Stats) {
				t.Fatalf("merged Stats diverge:\n  serial:   %+v\n  parallel: %+v", ser.Stats, par.Stats)
			}
		})
	}
}

// TestSeedSweepOrderIndependence pins the other half of the merge contract:
// AnalyzeRuns merges per-seed results in submission order, and Stats.Merge
// and the fact join are commutative, so permuting the seed list must leave
// the merged facts and statistics unchanged.
func TestSeedSweepOrderIndependence(t *testing.T) {
	workers := parallelWorkers(t)
	orders := [][]uint64{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{3, 1, 5, 2, 4},
	}
	prog, err := determinacy.Compile("figure2.js", figure2)
	if err != nil {
		t.Fatal(err)
	}
	var baseFP []string
	var baseStats any
	for i, seeds := range orders {
		res, err := determinacy.AnalyzeRuns(prog, determinacy.Options{
			MuJSLocals: true,
			Workers:    workers,
		}, seeds...)
		if err != nil {
			t.Fatalf("order %v: %v", seeds, err)
		}
		fp := resultFingerprint(res)
		if i == 0 {
			baseFP, baseStats = fp, res.Stats
			continue
		}
		diffFingerprints(t, fmt.Sprintf("order %v", seeds), baseFP, fp)
		if !reflect.DeepEqual(baseStats, res.Stats) {
			t.Fatalf("order %v: merged Stats diverge:\n  base:  %+v\n  got:   %+v",
				seeds, baseStats, res.Stats)
		}
	}
}

// normalizeRows strips the only legitimately nondeterministic field
// (Duration) and flattens errors to text so rows compare with DeepEqual.
func normalizeRows(rows []experiment.Table1Row) []experiment.Table1Row {
	out := append([]experiment.Table1Row(nil), rows...)
	for i := range out {
		out[i].Baseline.Duration = 0
		out[i].Spec.Duration = 0
		out[i].DetDOM.Duration = 0
		if out[i].Err != nil {
			out[i].Err = fmt.Errorf("%v", out[i].Err)
		}
	}
	return out
}

// TestDifferentialTable1 reruns the paper's Table 1 serially and on the
// pool and requires byte-identical formatted output plus field-identical
// rows (modulo wall-clock durations).
func TestDifferentialTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table 1 pipeline twice")
	}
	workers := parallelWorkers(t)
	serial := experiment.RunTable1(experiment.Config{Workers: 1})
	parallel := experiment.RunTable1(experiment.Config{Workers: workers})

	serText := experiment.FormatTable1(serial)
	parText := experiment.FormatTable1(parallel)
	if serText != parText {
		t.Fatalf("FormatTable1 output diverges:\n-- serial --\n%s\n-- parallel --\n%s", serText, parText)
	}
	if !reflect.DeepEqual(normalizeRows(serial), normalizeRows(parallel)) {
		t.Fatalf("row fields diverge:\n  serial:   %+v\n  parallel: %+v",
			normalizeRows(serial), normalizeRows(parallel))
	}
}

// normalizeStudy flattens per-benchmark errors to text for DeepEqual.
func normalizeStudy(s *experiment.EvalStudy) *experiment.EvalStudy {
	out := *s
	out.Benchmarks = append([]experiment.EvalOutcome(nil), s.Benchmarks...)
	for i := range out.Benchmarks {
		if out.Benchmarks[i].Err != nil {
			out.Benchmarks[i].Err = fmt.Errorf("%v", out.Benchmarks[i].Err)
		}
	}
	return &out
}

// TestDifferentialEvalStudy reruns the §5.2 eval-elimination study in both
// DOM modes serially and on the pool.
func TestDifferentialEvalStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 28-benchmark corpus four times")
	}
	workers := parallelWorkers(t)
	for _, detDOM := range []bool{false, true} {
		serial := experiment.RunEvalStudy(detDOM, experiment.Config{Workers: 1})
		parallel := experiment.RunEvalStudy(detDOM, experiment.Config{Workers: workers})

		serText := experiment.FormatEvalStudy(serial)
		parText := experiment.FormatEvalStudy(parallel)
		if serText != parText {
			t.Fatalf("detDOM=%v: FormatEvalStudy diverges:\n-- serial --\n%s\n-- parallel --\n%s",
				detDOM, serText, parText)
		}
		if !reflect.DeepEqual(normalizeStudy(serial), normalizeStudy(parallel)) {
			t.Fatalf("detDOM=%v: study fields diverge", detDOM)
		}
	}
}
