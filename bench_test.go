// Benchmarks regenerating the paper's evaluation (one per table/figure)
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The benchmark *metrics* (ReportMetric) carry the reproduced numbers: for
// Table 1 the points-to propagation work per configuration and the dynamic
// analysis' heap flush counts; for the §5.2 study the handled counts. The
// shapes, not the absolute timings, are what reproduces the paper.
package determinacy_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"determinacy"
	"determinacy/internal/batch/progcache"
	"determinacy/internal/core"
	"determinacy/internal/experiment"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
	"determinacy/internal/pointsto"
	"determinacy/internal/workload"
)

func newConcrete(mod *ir.Module) *interp.Interp {
	return interp.New(mod, interp.Options{})
}

// ---------------------------------------------------------------------------
// Table 1: pointer-analysis scalability per jQuery version. One bench per
// row, its three cells run one after another (Workers: 1) so the row
// benches here measure serial work; metrics report the three
// configurations' propagation work and flush counts.

func benchTable1(b *testing.B, v workload.JQueryVersion) {
	var row experiment.Table1Row
	for i := 0; i < b.N; i++ {
		row = experiment.RunTable1Version(v, experiment.Config{Workers: 1})
	}
	if row.Err != nil {
		b.Fatal(row.Err)
	}
	b.ReportMetric(float64(row.Baseline.Propagations), "baseline-work")
	b.ReportMetric(float64(row.Spec.Propagations), "spec-work")
	b.ReportMetric(float64(row.DetDOM.Propagations), "detdom-work")
	b.ReportMetric(float64(row.Spec.Flushes), "spec-flushes")
	b.ReportMetric(float64(row.DetDOM.Flushes), "detdom-flushes")
	b.ReportMetric(boolMetric(row.Baseline.Completed), "baseline-ok")
	b.ReportMetric(boolMetric(row.Spec.Completed), "spec-ok")
	b.ReportMetric(boolMetric(row.DetDOM.Completed), "detdom-ok")
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

func BenchmarkTable1JQuery10(b *testing.B) { benchTable1(b, workload.JQ10) }
func BenchmarkTable1JQuery11(b *testing.B) { benchTable1(b, workload.JQ11) }
func BenchmarkTable1JQuery12(b *testing.B) { benchTable1(b, workload.JQ12) }
func BenchmarkTable1JQuery13(b *testing.B) { benchTable1(b, workload.JQ13) }

// BenchmarkTable1JQuery10Traced runs the same row with a request-scoped
// trace attached — the exact tracer the serving stack threads through
// every traced request — so the delta against BenchmarkTable1JQuery10 is
// the tracing overhead EXPERIMENTS.md reports (<10% acceptance target).
func BenchmarkTable1JQuery10Traced(b *testing.B) {
	var row experiment.Table1Row
	var rt *obs.RequestTrace
	for i := 0; i < b.N; i++ {
		rt = obs.NewRequestTrace("bench", obs.DefaultTraceEventCap)
		row = experiment.RunTable1Version(workload.JQ10, experiment.Config{Tracer: rt, Workers: 1})
	}
	if row.Err != nil {
		b.Fatal(row.Err)
	}
	b.ReportMetric(float64(rt.Total()), "trace-events")
	b.ReportMetric(float64(row.Spec.Propagations), "spec-work")
}

// ---------------------------------------------------------------------------
// §5.2: eval elimination study. Metrics report handled counts.

func BenchmarkEvalElimination(b *testing.B) {
	var plain, det *experiment.EvalStudy
	for i := 0; i < b.N; i++ {
		plain = experiment.RunEvalStudy(false, experiment.Config{})
		det = experiment.RunEvalStudy(true, experiment.Config{})
	}
	b.ReportMetric(float64(plain.Runnable), "runnable")
	b.ReportMetric(float64(plain.Handled), "handled")
	b.ReportMetric(float64(det.Handled), "handled-detdom")
	b.ReportMetric(float64(plain.OnlyOurs), "beyond-syntactic")
}

// ---------------------------------------------------------------------------
// Figure 2/3/4 pipelines as micro-benchmarks of the analysis itself.

func benchAnalyze(b *testing.B, src string, opts determinacy.Options) {
	opts.Out = io.Discard
	b.ReportAllocs()
	var res *determinacy.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = determinacy.Analyze(src, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.NumFacts()), "facts")
	b.ReportMetric(float64(res.NumDeterminate()), "det-facts")
}

const fig2Bench = `(function() {
function checkf(p) { if (p.f < 32) setg(p, 42); }
function setg(r, v) { r.g = v; }
var x = { f : 23 }, y = { f : Math.random()*100 };
checkf(x); checkf(y);
(y.f > 50 ? checkf : setg)(x, 72);
var z = { f: x.g - 16, h: true };
checkf(z);
})();`

func BenchmarkFigure2Analysis(b *testing.B) {
	benchAnalyze(b, fig2Bench, determinacy.Options{Seed: 2, MuJSLocals: true})
}

const fig3Bench = `
function Rectangle(w, h) { this.width = w; this.height = h; }
Rectangle.prototype.toString = function() { return "[" + this.width + "x" + this.height + "]"; };
String.prototype.cap = function() { return this[0].toUpperCase() + this.substr(1); };
function defAccessors(prop) {
	Rectangle.prototype["get" + prop.cap()] = function() { return this[prop]; };
	Rectangle.prototype["set" + prop.cap()] = function(v) { this[prop] = v; };
}
var props = ["width", "height"];
for (var i = 0; i < props.length; i++) defAccessors(props[i]);
var r = new Rectangle(20, 30);
r.setWidth(r.getWidth() + 20);
`

func BenchmarkFigure3Pipeline(b *testing.B) {
	b.ReportAllocs()
	var specWork, baseWork int
	for i := 0; i < b.N; i++ {
		res, err := determinacy.Analyze(fig3Bench, determinacy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		spec, err := res.Specialize(determinacy.SpecializeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		base, err := determinacy.PointsTo(fig3Bench, determinacy.PointsToOptions{})
		if err != nil {
			b.Fatal(err)
		}
		after, err := determinacy.PointsTo(spec.Source, determinacy.PointsToOptions{})
		if err != nil {
			b.Fatal(err)
		}
		specWork, baseWork = after.Propagations, base.Propagations
	}
	b.ReportMetric(float64(baseWork), "baseline-work")
	b.ReportMetric(float64(specWork), "spec-work")
}

const fig4Bench = `
var ivymap = window.ivymap || {};
ivymap["pc.sy.banner.tcck."] = function() { return 1; };
function showIvyViaJs(locationId) {
	var _f = undefined;
	var _fconv = "ivymap['" + locationId + "']";
	try { _f = eval(_fconv); if (_f != undefined) { _f(); } } catch(e) { }
}
showIvyViaJs('pc.sy.banner.tcck.');
showIvyViaJs('pc.sy.banner.duilian.');
`

func BenchmarkFigure4EvalElim(b *testing.B) {
	b.ReportAllocs()
	var eliminated int
	for i := 0; i < b.N; i++ {
		res, err := determinacy.Analyze(fig4Bench, determinacy.Options{WithDOM: true, Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		spec, err := res.Specialize(determinacy.SpecializeOptions{EliminateEval: true})
		if err != nil {
			b.Fatal(err)
		}
		eliminated = spec.Stats.EvalsEliminated
	}
	b.ReportMetric(float64(eliminated), "evals-eliminated")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md "key design decisions").

// BenchmarkAblationCounterfactual compares the fact yield with and without
// counterfactual execution on a branch-heavy indeterminate workload: without
// it, every indeterminate-false branch costs a conservative heap flush and
// the determinate fact count collapses.
func BenchmarkAblationCounterfactual(b *testing.B) {
	src := workload.RandomProgram(workload.GenConfig{Seed: 1234, MaxStmts: 60, IndetPercent: 40})
	run := func(disable bool) (detFacts, flushes int) {
		mod := ir.MustCompile("ablate.js", src)
		store := facts.NewStore()
		a := core.New(mod, store, core.Options{DisableCounterfactual: disable})
		if _, err := a.Run(); err != nil && !errors.Is(err, core.ErrFlushLimit) {
			b.Fatal(err)
		}
		return store.NumDeterminate(), a.Stats().HeapFlushes
	}
	var onDet, onFl, offDet, offFl int
	for i := 0; i < b.N; i++ {
		onDet, onFl = run(false)
		offDet, offFl = run(true)
	}
	b.ReportMetric(float64(onDet), "det-facts/counterfactual")
	b.ReportMetric(float64(offDet), "det-facts/ablated")
	b.ReportMetric(float64(onFl), "flushes/counterfactual")
	b.ReportMetric(float64(offFl), "flushes/ablated")
	if offDet > onDet {
		b.Fatalf("ablation yielded more determinate facts (%d > %d)?", offDet, onDet)
	}
}

// BenchmarkAblationImmediateTaint compares post-branch indeterminacy marking
// (the paper's rule ÎF1) against information-flow-style immediate tainting.
func BenchmarkAblationImmediateTaint(b *testing.B) {
	src := workload.RandomProgram(workload.GenConfig{Seed: 99, MaxStmts: 60, IndetPercent: 40})
	run := func(immediate bool) int {
		mod := ir.MustCompile("ablate.js", src)
		store := facts.NewStore()
		a := core.New(mod, store, core.Options{ImmediateTaint: immediate})
		if _, err := a.Run(); err != nil && !errors.Is(err, core.ErrFlushLimit) {
			b.Fatal(err)
		}
		return store.NumDeterminate()
	}
	var deferred, immediate int
	for i := 0; i < b.N; i++ {
		deferred = run(false)
		immediate = run(true)
	}
	b.ReportMetric(float64(deferred), "det-facts/post-branch")
	b.ReportMetric(float64(immediate), "det-facts/immediate")
}

// BenchmarkAblationCutoffDepth sweeps the counterfactual nesting cut-off k.
func BenchmarkAblationCutoffDepth(b *testing.B) {
	src := workload.RandomProgram(workload.GenConfig{Seed: 777, MaxStmts: 80, MaxDepth: 5, IndetPercent: 45})
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		b.Run(sprintInt("k", k), func(b *testing.B) {
			var det, aborts int
			for i := 0; i < b.N; i++ {
				mod := ir.MustCompile("ablate.js", src)
				store := facts.NewStore()
				a := core.New(mod, store, core.Options{MaxCounterfactualDepth: k})
				if _, err := a.Run(); err != nil && !errors.Is(err, core.ErrFlushLimit) {
					b.Fatal(err)
				}
				det, aborts = store.NumDeterminate(), a.Stats().CFAborts
			}
			b.ReportMetric(float64(det), "det-facts")
			b.ReportMetric(float64(aborts), "cf-aborts")
		})
	}
}

func sprintInt(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + digits
}

// BenchmarkEpochFlush measures the O(1) epoch-based heap flush (§4) against
// the size of the heap it conceptually invalidates.
func BenchmarkEpochFlush(b *testing.B) {
	mod := ir.MustCompile("heap.js", `
		var objs = [];
		for (var i = 0; i < 200; i++) {
			objs.push({a: i, b: i + 1, c: "s" + i});
		}
	`)
	a := core.New(mod, nil, core.Options{})
	if _, err := a.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FlushHeap("bench")
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

func BenchmarkInterpreterConcrete(b *testing.B) {
	src := workload.RandomProgram(workload.GenConfig{Seed: 5, MaxStmts: 40})
	mod := ir.MustCompile("bench.js", src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := newConcrete(mod)
		if _, err := it.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterInstrumented(b *testing.B) {
	src := workload.RandomProgram(workload.GenConfig{Seed: 5, MaxStmts: 40})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mod := ir.MustCompile("bench.js", src)
		a := core.New(mod, facts.NewStore(), core.Options{})
		if _, err := a.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	src := workload.JQuery(workload.JQ10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Compile("jq.js", src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Tracer overhead. The nil-tracer benchmark is the regression guard for the
// near-zero-overhead contract (compare against BenchmarkFigure2Analysis from
// before the obs layer existed); the collector benchmark shows the cost of
// turning tracing on.

func BenchmarkTracerDisabled(b *testing.B) {
	benchAnalyze(b, fig2Bench, determinacy.Options{Seed: 2, MuJSLocals: true})
}

func BenchmarkTracerCollector(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		col := obs.NewCollector(4096)
		_, err := determinacy.Analyze(fig2Bench, determinacy.Options{
			Seed: 2, MuJSLocals: true, Out: io.Discard, Tracer: col,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = col.Total()
	}
	b.ReportMetric(float64(events), "events")
}

// ---------------------------------------------------------------------------
// Batch engine: full Table 1 serial vs parallel, and the compile cache.
// On a single-core runner the two Table 1 variants coincide (see
// EXPERIMENTS.md); the busy/longest-job metrics expose the scheduling bound
// — busy-ms/longest-ms is the speedup ceiling any worker count can reach.

func benchTable1Pool(b *testing.B, workers int) {
	m := obs.NewMetrics()
	var rows []experiment.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiment.RunTable1(experiment.Config{Workers: workers, Metrics: m})
	}
	for _, r := range rows {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	busy := float64(m.Counter("batch_pool_busy_nanoseconds_total").Value())
	wall := float64(m.Counter("batch_pool_wall_nanoseconds_total").Value())
	b.ReportMetric(busy/float64(b.N)/1e6, "busy-ms")
	b.ReportMetric(wall/float64(b.N)/1e6, "wall-ms")
	b.ReportMetric(m.Gauge("batch_pool_longest_job_seconds").Value()*1e3, "longest-ms")
}

func BenchmarkTable1Serial(b *testing.B)   { benchTable1Pool(b, 1) }
func BenchmarkTable1Parallel(b *testing.B) { benchTable1Pool(b, 4) }

func BenchmarkProgCacheMiss(b *testing.B) {
	src := workload.JQuery(workload.JQ10)
	c := progcache.New(b.N + 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh display name per iteration forces a distinct key, so every
		// call pays the full lex→parse→lower cost plus insertion.
		if _, _, err := c.Compile(sprintInt("jq-", i), src); err != nil {
			b.Fatal(err)
		}
	}
	if s := c.Stats(); s.Hits != 0 {
		b.Fatalf("miss benchmark hit the cache: %+v", s)
	}
}

func BenchmarkProgCacheHit(b *testing.B) {
	src := workload.JQuery(workload.JQ10)
	c := progcache.New(0)
	if _, _, err := c.Compile("jq.js", src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Compile("jq.js", src); err != nil {
			b.Fatal(err)
		}
	}
	if s := c.Stats(); s.Misses != 1 {
		b.Fatalf("hit benchmark missed the cache: %+v", s)
	}
}

func BenchmarkPointsToBaselineJQ10(b *testing.B) {
	mod := ir.MustCompile("jq.js", workload.JQuery(workload.JQ10))
	b.ReportAllocs()
	var work int
	for i := 0; i < b.N; i++ {
		res := pointsto.Analyze(mod, pointsto.Options{Budget: 10_000_000})
		work = res.Propagations
	}
	b.ReportMetric(float64(work), "propagations")
}

// ---------------------------------------------------------------------------
// Guard overhead. The interrupt checkpoints and panic boundary are always
// on; BenchmarkTable1JQuery10 above is therefore already the "idle guard"
// configuration (nil context, zero deadline: a checkpoint is two nil
// checks every 2048 steps). This bench runs the same Table 1 row with a
// live context and armed deadline, so every checkpoint takes the full poll
// path — the worst case a -timeout user pays. EXPERIMENTS.md records the
// measured delta against BenchmarkTable1JQuery10 (target: < 3%).

func BenchmarkTable1JQuery10GuardLive(b *testing.B) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	var row experiment.Table1Row
	for i := 0; i < b.N; i++ {
		row = experiment.RunTable1Version(workload.JQ10, experiment.Config{Ctx: ctx, Workers: 1})
	}
	if row.Err != nil {
		b.Fatal(row.Err)
	}
	b.ReportMetric(boolMetric(row.Baseline.Completed && row.Spec.Completed && row.DetDOM.Completed), "all-ok")
}

// factsSink keeps BenchmarkResultFacts' renders from being optimized away.
var factsSink []determinacy.Fact

// BenchmarkResultFacts times Result.Facts alone, on analyses made before
// the timer starts: examples/js/counter.js at seed 1, and 200 programs
// from perfbench serve's generator config (seeds 700000+), rendered all
// together per op.
func BenchmarkResultFacts(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("examples", "js", "counter.js"))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := determinacy.Analyze(string(src), determinacy.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var serve []*determinacy.Result
	for i := 0; i < 200; i++ {
		gen := workload.RandomProgram(workload.GenConfig{
			Seed: 700_000 + uint64(i), MaxStmts: 40, WithProto: true, WithEval: true, WithForIn: true,
		})
		res, err := determinacy.Analyze(gen, determinacy.Options{Seed: uint64(i), MaxFlushes: 1000, Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		serve = append(serve, res)
	}
	run := func(b *testing.B, rs []*determinacy.Result) {
		n := 0
		for _, r := range rs {
			n += r.NumFacts()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range rs {
				factsSink = r.Facts()
			}
		}
		b.ReportMetric(float64(n), "facts/op")
	}
	b.Run("counter", func(b *testing.B) { run(b, []*determinacy.Result{counter}) })
	b.Run("serve200", func(b *testing.B) { run(b, serve) })
}
