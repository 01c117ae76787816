// Package experiment reproduces the paper's evaluation (§5): Table 1
// (pointer-analysis scalability on the jQuery-style workloads) and the §5.2
// eval-elimination study on the 28-program corpus. cmd/detbench prints the
// results; bench_test.go wraps them as Go benchmarks; EXPERIMENTS.md records
// paper-vs-measured outcomes.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"determinacy/internal/ast"
	"determinacy/internal/batch"
	"determinacy/internal/batch/progcache"
	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/factcache"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
	"determinacy/internal/parser"
	"determinacy/internal/pointsto"
	"determinacy/internal/specialize"
	"determinacy/internal/workload"
)

// Config tunes the experiments.
type Config struct {
	// Budget is the points-to work budget standing in for the paper's
	// 10-minute timeout. 0 means the default of 2,000,000 propagations.
	Budget int
	// MaxFlushes stops the dynamic analysis (paper: 1000).
	MaxFlushes int
	// HandlerLimit bounds DOM event handler invocations per run.
	HandlerLimit int
	// Seed drives the runs' PRNG.
	Seed uint64
	// Tracer observes every dynamic run and solver invocation performed by
	// the experiments. nil disables tracing.
	Tracer obs.Tracer
	// Workers bounds how many independent experiment jobs (Table 1 cells,
	// eval-study benchmarks) run concurrently (0 = GOMAXPROCS, 1 = strictly
	// serial). Results are collected in submission order, so every output —
	// rows, study counts, formatted tables — is byte-identical across
	// settings.
	Workers int
	// Cache is the shared compilation cache; when nil, withDefaults
	// installs a fresh one, so the baseline/spec/detdom cells of one
	// jQuery version compile its source once.
	Cache *progcache.Cache
	// Metrics, when non-nil, additionally receives pool utilization
	// (batch_pool_*) and compile-cache hit-rate (progcache_*) series.
	Metrics *obs.Metrics
	// Ctx cancels the whole study cooperatively: in-flight cells stop at
	// their next interpreter/solver checkpoint and unstarted cells are
	// skipped with a ctx-wrapped error in their row. nil means no
	// cancellation.
	Ctx context.Context
	// Deadline bounds each cell's dynamic run and solve by wall clock
	// (zero = none).
	Deadline time.Time
	// FactCache, when non-nil, memoizes completed dynamic runs in the
	// on-disk fact database (L2 under the compile cache): repeated
	// experiment sweeps over the same workloads serve facts, statistics and
	// handler counts from cache, byte-identical to a cold run. Runs stopped
	// at the flush cap (or failing outright) never populate it.
	FactCache *factcache.Cache
}

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		// Sits well above the cost of analyzing the specialized programs
		// (~9k propagation events) and well below the reflective blowup of
		// the unspecialized ones (~300k); see EXPERIMENTS.md.
		c.Budget = 60_000
	}
	if c.MaxFlushes == 0 {
		c.MaxFlushes = 1000
	}
	if c.HandlerLimit == 0 {
		c.HandlerLimit = 8
	}
	if c.Cache == nil {
		c.Cache = progcache.New(0).WithMetrics(c.Metrics)
	}
	return c
}

// pool builds the worker pool used by one study run.
func (c Config) pool() *batch.Pool {
	return batch.New(c.Workers).WithMetrics(c.Metrics)
}

// compile routes front-end work through the shared cache.
func (c Config) compile(file, src string) (*ast.Program, *ir.Module, error) {
	if c.Cache != nil {
		return c.Cache.Compile(file, src)
	}
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, nil, err
	}
	mod, err := ir.Lower(prog)
	if err != nil {
		return nil, nil, err
	}
	return prog, mod, nil
}

// DynamicRun is the result of one instrumented execution against the DOM.
type DynamicRun struct {
	Prog        *ast.Program
	Mod         *ir.Module // the run's layer: the compiled module plus its eval code
	Store       *facts.Store
	Stats       core.Stats
	FlushLimit  bool // the run was stopped at the flush cap
	RunErr      error
	HandlersRan int
}

// experimentNow is the fixed Date.now the experiments run under: the
// PLDI'13 week; any fixed instant works.
const experimentNow = 1371161337000

// dynamicSig is the fact-cache signature of one experiment dynamic run.
func dynamicSig(detDOM bool, cfg Config) factcache.Sig {
	return factcache.Sig{
		Seed:        cfg.Seed,
		NowBits:     factcache.NumSigBits(experimentNow),
		WithDOM:     true,
		DetDOM:      detDOM,
		RunHandlers: cfg.HandlerLimit,
		MaxFlushes:  cfg.MaxFlushes,
	}
}

// discardCapture tees the (discarded) console output into a bounded buffer
// so a cached run replays it; see factcache.MaxOutputBytes.
type discardCapture struct {
	b        []byte
	overflow bool
}

func (w *discardCapture) Write(p []byte) (int, error) {
	if len(w.b)+len(p) > factcache.MaxOutputBytes {
		w.overflow = true
	} else {
		w.b = append(w.b, p...)
	}
	return len(p), nil
}

// RunDynamic executes src under the instrumented interpreter with the DOM
// emulation, driving registered event handlers afterwards. With
// cfg.FactCache set, a completed run (no error, no flush-cap stop, no
// runtime eval) is memoized and an identical re-submission is served from
// the cache byte-identically.
func RunDynamic(src string, detDOM bool, cfg Config) (*DynamicRun, error) {
	cfg = cfg.withDefaults()
	prog, mod, err := cfg.compile("workload.js", src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}

	var (
		key     factcache.Key
		rec     *factcache.Recorder
		capture *discardCapture
	)
	coreOut := io.Writer(io.Discard)
	if cfg.FactCache != nil {
		key = factcache.KeyFor("workload.js", src, dynamicSig(detDOM, cfg))
		if hit, ok := cfg.FactCache.Lookup(key); ok {
			return &DynamicRun{
				Prog: prog, Mod: mod, Store: hit.Store,
				Stats: hit.Stats, HandlersRan: hit.HandlersRan,
			}, nil
		}
		cfg.FactCache.Diff(key, mod)
		rec = factcache.NewRecorder()
		capture = &discardCapture{}
		coreOut = capture
	}

	store := facts.NewStore()
	coreOpts := core.Options{
		Seed:       cfg.Seed,
		Now:        experimentNow,
		MaxFlushes: cfg.MaxFlushes,
		Out:        coreOut,
		Tracer:     cfg.Tracer,
		Ctx:        cfg.Ctx,
		Deadline:   cfg.Deadline,
	}
	if rec != nil {
		coreOpts.OnEnterFunc = rec.OnEnter
	}
	a := core.New(mod, store, coreOpts)
	doc := dom.NewDocument(dom.Options{})
	binding := dom.InstallCore(a, doc, detDOM)

	out := &DynamicRun{Prog: prog, Mod: a.Mod, Store: store}
	_, runErr := a.Run()
	if runErr == nil || errors.Is(runErr, core.ErrFlushLimit) {
		n, herr := binding.RunHandlers(cfg.HandlerLimit)
		out.HandlersRan = n
		if runErr == nil {
			runErr = herr
		}
	}
	if errors.Is(runErr, core.ErrFlushLimit) {
		out.FlushLimit = true
		runErr = nil
	}
	out.RunErr = runErr
	out.Stats = a.Stats()

	if cfg.FactCache != nil {
		switch {
		case out.RunErr != nil:
			cfg.FactCache.Skip("error")
		case out.FlushLimit:
			// A flush-cap stop is a partial execution: its facts are sound
			// but not what an uncapped run produces — never cache it.
			cfg.FactCache.Skip("partial")
		case a.Mod.NumInstrs > mod.NumInstrs:
			cfg.FactCache.Skip("eval")
		case capture.overflow:
			cfg.FactCache.Skip("output-cap")
		default:
			cfg.FactCache.Store(key, mod, store, rec, capture.b, out.Stats, out.HandlersRan)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Cell is one configuration outcome: completed-within-budget plus the
// dynamic analysis' heap flush count (the parenthesized numbers in Table 1).
type Table1Cell struct {
	Completed    bool
	Flushes      int
	FlushLimit   bool
	Propagations int
	Duration     time.Duration
	SpecStats    specialize.Stats
}

// Mark renders the paper's ✓/✗ symbol.
func (c Table1Cell) Mark() string {
	if c.Completed {
		return "ok"
	}
	return "FAIL"
}

// FlushStr renders the flush count like the paper (">1000" at the cap).
func (c Table1Cell) FlushStr() string {
	if c.FlushLimit {
		return fmt.Sprintf(">%d", c.Flushes-1)
	}
	return fmt.Sprint(c.Flushes)
}

// Table1Row is one jQuery version's results.
type Table1Row struct {
	Version  workload.JQueryVersion
	Baseline Table1Cell
	Spec     Table1Cell
	DetDOM   Table1Cell
	Err      error
}

// RunTable1 reproduces Table 1. The three cells of each version row are
// independent analyses; they fan out across cfg.Workers pool workers and
// reassemble in row-major submission order, so the returned rows — and
// FormatTable1's rendering of them — are byte-identical to a serial run
// for every worker count.
func RunTable1(cfg Config) []Table1Row {
	cfg = cfg.withDefaults()
	versions := workload.JQueryVersions
	type cellOut struct {
		cell Table1Cell
		err  error
	}
	const kinds = 3 // baseline, spec, spec+detdom
	outs, qs := batch.MapCtx(cfg.Ctx, cfg.pool(), len(versions)*kinds, func(i int) cellOut {
		src := workload.JQuery(versions[i/kinds])
		var out cellOut
		switch i % kinds {
		case 0:
			out.cell, out.err = baselineCell(src, cfg)
		case 1:
			out.cell, out.err = specCell(src, false, cfg)
		default:
			out.cell, out.err = specCell(src, true, cfg)
		}
		return out
	})
	for _, q := range qs {
		outs[q.Index].err = q.Err
	}
	rows := make([]Table1Row, 0, len(versions))
	for ri, v := range versions {
		row := Table1Row{Version: v}
		base, spec, det := outs[ri*kinds], outs[ri*kinds+1], outs[ri*kinds+2]
		// Keep the serial path's error precedence: the first failing stage
		// sets Err and the later cells stay zero.
		switch {
		case base.err != nil:
			row.Err = base.err
		case spec.err != nil:
			row.Baseline, row.Err = base.cell, spec.err
		case det.err != nil:
			row.Baseline, row.Spec, row.Err = base.cell, spec.cell, det.err
		default:
			row.Baseline, row.Spec, row.DetDOM = base.cell, spec.cell, det.cell
		}
		rows = append(rows, row)
	}
	return rows
}

// RunTable1Version runs a single row serially (used by benchmarks).
func RunTable1Version(v workload.JQueryVersion, cfg Config) Table1Row {
	return runTable1Row(v, cfg.withDefaults())
}

func runTable1Row(v workload.JQueryVersion, cfg Config) Table1Row {
	row := Table1Row{Version: v}
	src := workload.JQuery(v)

	cell, err := baselineCell(src, cfg)
	if err != nil {
		row.Err = err
		return row
	}
	row.Baseline = cell

	// Spec and Spec+DetDOM: dynamic facts, specialization, then points-to
	// on the specialized program.
	for _, detDOM := range []bool{false, true} {
		cell, err := specCell(src, detDOM, cfg)
		if err != nil {
			row.Err = err
			return row
		}
		if detDOM {
			row.DetDOM = cell
		} else {
			row.Spec = cell
		}
	}
	return row
}

// baselineCell runs the plain points-to analysis on the original program.
func baselineCell(src string, cfg Config) (Table1Cell, error) {
	_, mod, err := cfg.compile("jquery.js", src)
	if err != nil {
		return Table1Cell{}, err
	}
	start := time.Now()
	base, err := pointsto.AnalyzeGuarded(mod, pointsto.Options{
		Budget: cfg.Budget, Tracer: cfg.Tracer, Ctx: cfg.Ctx, Deadline: cfg.Deadline,
	})
	if err != nil {
		return Table1Cell{}, err
	}
	return Table1Cell{
		// An interrupted solve is an under-approximation — same ✗ as a
		// budget blowout.
		Completed:    !base.BudgetExceeded && base.Interrupted == nil,
		Propagations: base.Propagations,
		Duration:     time.Since(start),
	}, nil
}

func specCell(src string, detDOM bool, cfg Config) (Table1Cell, error) {
	dyn, err := RunDynamic(src, detDOM, cfg)
	if err != nil {
		return Table1Cell{}, err
	}
	if dyn.RunErr != nil {
		return Table1Cell{}, fmt.Errorf("dynamic run: %w", dyn.RunErr)
	}
	cell := Table1Cell{Flushes: dyn.Stats.HeapFlushes, FlushLimit: dyn.FlushLimit}
	res, err := specialize.Specialize(dyn.Prog, dyn.Mod, dyn.Store, specialize.Options{})
	if err != nil {
		return cell, err
	}
	cell.SpecStats = res.Stats
	specSrc := ast.Print(res.Program)
	_, mod, err := cfg.compile("jquery-spec.js", specSrc)
	if err != nil {
		return cell, fmt.Errorf("specialized output does not compile: %w", err)
	}
	start := time.Now()
	pt, err := pointsto.AnalyzeGuarded(mod, pointsto.Options{
		Budget: cfg.Budget, Tracer: cfg.Tracer, Ctx: cfg.Ctx, Deadline: cfg.Deadline,
	})
	if err != nil {
		return cell, err
	}
	cell.Completed = !pt.BudgetExceeded && pt.Interrupted == nil
	cell.Propagations = pt.Propagations
	cell.Duration = time.Since(start)
	return cell, nil
}

// Table1Metrics publishes Table 1 outcomes into a metrics registry with
// version/config labels. Rows are iterated in slice order, so repeated
// exports of the same results are identical.
func Table1Metrics(rows []Table1Row, m *obs.Metrics) {
	for _, r := range rows {
		if r.Err != nil {
			m.Counter(fmt.Sprintf(`table1_errors_total{version=%q}`, r.Version)).Inc()
			continue
		}
		for _, c := range []struct {
			name string
			cell Table1Cell
		}{
			{"baseline", r.Baseline},
			{"spec", r.Spec},
			{"spec_detdom", r.DetDOM},
		} {
			labels := fmt.Sprintf(`{version=%q,config=%q}`, r.Version, c.name)
			m.Counter("table1_propagations_total" + labels).Add(int64(c.cell.Propagations))
			m.Gauge("table1_completed" + labels).Set(boolGauge(c.cell.Completed))
			m.Gauge("table1_flushes" + labels).Set(float64(c.cell.Flushes))
			m.Gauge("table1_duration_seconds" + labels).Set(c.cell.Duration.Seconds())
		}
	}
}

// EvalStudyMetrics publishes the §5.2 study counts into a metrics registry.
// Failure reasons iterate in the fixed reporting order (not map order) so
// dumps are deterministic.
func EvalStudyMetrics(s *EvalStudy, m *obs.Metrics) {
	mode := "dom"
	if s.DetDOM {
		mode = "detdom"
	}
	labels := fmt.Sprintf(`{mode=%q}`, mode)
	m.Counter("evalstudy_benchmarks_total" + labels).Add(int64(s.Total))
	m.Counter("evalstudy_runnable_total" + labels).Add(int64(s.Runnable))
	m.Counter("evalstudy_handled_total" + labels).Add(int64(s.Handled))
	m.Counter("evalstudy_beyond_syntactic_total" + labels).Add(int64(s.OnlyOurs))
	for _, r := range []string{"indeterminate-argument", "not-covered", "indeterminate-callee", "indeterminate-loop-bound", "parse-failed", "residual-eval"} {
		if n := s.ByReason[r]; n > 0 {
			m.Counter(fmt.Sprintf("evalstudy_failures_total{mode=%q,reason=%q}", mode, r)).Add(int64(n))
		}
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// FormatTable1 renders rows like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %-16s %-16s\n", "jQuery Version", "Baseline", "Spec", "Spec+DetDOM")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-16s ERROR: %v\n", r.Version, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %-10s %-16s %-16s\n", r.Version,
			r.Baseline.Mark(),
			fmt.Sprintf("%s (%s)", r.Spec.Mark(), r.Spec.FlushStr()),
			fmt.Sprintf("%s (%s)", r.DetDOM.Mark(), r.DetDOM.FlushStr()))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// §5.2: eval elimination

// EvalOutcome classifies one corpus benchmark.
type EvalOutcome struct {
	Name     string
	Runnable bool
	// Handled means the specialized program has no statically reachable
	// eval site left.
	Handled bool
	// Reason is the dominant failure category when not handled.
	Reason string
	// SyntacticHandled reports whether the purely syntactic
	// unevalizer-style baseline also eliminates every eval.
	SyntacticHandled bool
	// Sites are the per-site statuses from the specializer.
	Sites []specialize.EvalSite
	Err   error
}

// EvalStudy reproduces the §5.2 numbers.
type EvalStudy struct {
	DetDOM     bool
	Total      int
	Runnable   int
	Handled    int
	ByReason   map[string]int
	OnlyOurs   int // handled by us, not by the syntactic baseline
	Benchmarks []EvalOutcome
}

// RunEvalStudy runs the corpus through the pipeline. The benchmarks are
// independent and fan out across cfg.Workers pool workers; aggregation
// folds the outcomes in corpus submission order, so the study counts and
// FormatEvalStudy's rendering are byte-identical to a serial run.
func RunEvalStudy(detDOM bool, cfg Config) *EvalStudy {
	cfg = cfg.withDefaults()
	corpus := workload.EvalCorpus()
	outs, qs := batch.MapCtx(cfg.Ctx, cfg.pool(), len(corpus), func(i int) EvalOutcome {
		return evalOne(corpus[i], detDOM, cfg)
	})
	for _, q := range qs {
		outs[q.Index] = EvalOutcome{Name: corpus[q.Index].Name, Err: q.Err}
	}
	study := &EvalStudy{DetDOM: detDOM, ByReason: map[string]int{}}
	for _, out := range outs {
		study.Total++
		if out.Runnable {
			study.Runnable++
			if out.Handled {
				study.Handled++
				if !out.SyntacticHandled {
					study.OnlyOurs++
				}
			} else {
				study.ByReason[out.Reason]++
			}
		}
		study.Benchmarks = append(study.Benchmarks, out)
	}
	return study
}

func evalOne(b workload.EvalBenchmark, detDOM bool, cfg Config) EvalOutcome {
	out := EvalOutcome{Name: b.Name}
	dyn, err := RunDynamic(b.Source, detDOM, cfg)
	if err != nil {
		out.Err = err
		return out
	}
	if dyn.RunErr != nil {
		// The benchmark cannot be run (missing code / unsupported DOM API),
		// mirroring the paper's four disregarded programs.
		out.Runnable = false
		return out
	}
	out.Runnable = true
	out.SyntacticHandled = syntacticBaselineHandles(dyn.Prog)

	res, err := specialize.Specialize(dyn.Prog, dyn.Mod, dyn.Store, specialize.Options{EliminateEval: true})
	if err != nil {
		out.Err = err
		return out
	}
	out.Sites = res.EvalSites

	specSrc := ast.Print(res.Program)
	_, mod, err := cfg.compile("spec.js", specSrc)
	if err != nil {
		out.Err = fmt.Errorf("specialized output does not compile: %w", err)
		return out
	}
	pt, err := pointsto.AnalyzeGuarded(mod, pointsto.Options{
		Budget: cfg.Budget, Tracer: cfg.Tracer, Ctx: cfg.Ctx, Deadline: cfg.Deadline,
	})
	if err != nil {
		out.Err = err
		return out
	}
	out.Handled = len(pt.EvalSites) == 0 && !pt.BudgetExceeded && pt.Interrupted == nil
	if !out.Handled {
		out.Reason = worstReason(res.EvalSites)
	}
	return out
}

// worstReason picks the dominant non-eliminated status for reporting.
func worstReason(sites []specialize.EvalSite) string {
	best := specialize.EvalEliminated
	for _, s := range sites {
		if s.Status > best {
			best = s.Status
		}
	}
	if best == specialize.EvalEliminated {
		return "residual-eval"
	}
	return best.String()
}

// syntacticBaselineHandles implements an unevalizer-style purely syntactic
// check: every eval call's argument must be a string literal (or a
// concatenation of literals) at the call site. This is deliberately cruder
// than the real unevalizer (which runs its own constant propagation), but
// captures its defining restriction: "their analysis requires the
// concatenation to be a syntactic part of the eval argument expression".
func syntacticBaselineHandles(prog *ast.Program) bool {
	ok := true
	ast.Walk(prog, func(n ast.Node) bool {
		call, isCall := n.(*ast.Call)
		if !isCall {
			return true
		}
		id, isIdent := call.Callee.(*ast.Ident)
		if !isIdent || id.Name != "eval" {
			return true
		}
		if len(call.Args) != 1 || !syntacticConst(call.Args[0]) {
			ok = false
		}
		return true
	})
	return ok
}

func syntacticConst(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.StringLit:
		return true
	case *ast.Binary:
		return x.Op == "+" && syntacticConst(x.L) && syntacticConst(x.R)
	default:
		return false
	}
}

// FormatEvalStudy renders the study like §5.2's prose numbers.
func FormatEvalStudy(s *EvalStudy) string {
	var b strings.Builder
	mode := "conservative DOM"
	if s.DetDOM {
		mode = "determinate DOM (unsound, §5.1)"
	}
	fmt.Fprintf(&b, "eval elimination study [%s]\n", mode)
	fmt.Fprintf(&b, "  benchmarks: %d total, %d runnable\n", s.Total, s.Runnable)
	fmt.Fprintf(&b, "  fully specialized: %d of %d\n", s.Handled, s.Runnable)
	fmt.Fprintf(&b, "  handled by us but not by the syntactic baseline: %d\n", s.OnlyOurs)
	if len(s.ByReason) > 0 {
		fmt.Fprintf(&b, "  failures:\n")
		for _, r := range []string{"indeterminate-argument", "not-covered", "indeterminate-callee", "indeterminate-loop-bound", "parse-failed", "residual-eval"} {
			if n := s.ByReason[r]; n > 0 {
				fmt.Fprintf(&b, "    %-26s %d\n", r, n)
			}
		}
	}
	for _, o := range s.Benchmarks {
		status := "excluded (not runnable)"
		if o.Err != nil {
			status = "ERROR: " + o.Err.Error()
		} else if o.Runnable {
			if o.Handled {
				status = "handled"
				if !o.SyntacticHandled {
					status += " (beyond syntactic baseline)"
				}
			} else {
				status = "failed: " + o.Reason
			}
		}
		fmt.Fprintf(&b, "  %-24s %s\n", o.Name, status)
	}
	return b.String()
}
