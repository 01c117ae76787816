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
	"strings"
	"time"

	"determinacy"
	"determinacy/internal/ast"
	"determinacy/internal/batch"
	"determinacy/internal/obs"
	"determinacy/internal/pointsto"
	"determinacy/internal/specialize"
	"determinacy/internal/workload"
)

// Config tunes the experiments.
type Config struct {
	// Budget is the points-to work budget standing in for the paper's
	// 10-minute timeout. 0 means the default of 60,000 propagations.
	Budget int
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
	// Metrics, when non-nil, additionally receives pool utilization
	// (batch_pool_*) and compile-cache hit-rate (progcache_*) series.
	Metrics *obs.Metrics
	// Ctx cancels the whole study cooperatively: in-flight cells stop at
	// their next interpreter/solver checkpoint and unstarted cells are
	// skipped with a ctx-wrapped error in their row. Its deadline, if any,
	// also bounds each cell's dynamic run and solve by wall clock. nil means
	// no cancellation.
	Ctx context.Context
	// FactCache, when non-nil, memoizes completed dynamic runs in the
	// on-disk fact database (see determinacy.Options.FactCache): repeated
	// experiment sweeps over the same workloads serve facts, statistics and
	// handler counts from cache, byte-identical to a cold run. Runs stopped
	// at the flush cap (or failing outright) never populate it.
	FactCache *determinacy.FactCache

	// cache is the study's compile cache, so the baseline/spec/detdom cells
	// of one jQuery version compile its source once.
	cache *determinacy.Cache
}

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		// Sits well above the cost of analyzing the specialized programs
		// (~9k propagation events) and well below the reflective blowup of
		// the unspecialized ones (~300k); see EXPERIMENTS.md.
		c.Budget = 60_000
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.cache == nil {
		c.cache = determinacy.NewCache(0).WithMetrics(c.Metrics)
	}
	return c
}

// pool builds the worker pool used by one study run.
func (c Config) pool() *batch.Pool {
	return batch.New(c.Workers).WithMetrics(c.Metrics)
}

// solve runs the budgeted points-to analysis on p under the study's
// context and its deadline.
func (c Config) solve(p *determinacy.Program) (*pointsto.Result, error) {
	deadline, _ := c.Ctx.Deadline()
	return pointsto.AnalyzeGuarded(p.Module(), pointsto.Options{
		Budget: c.Budget, Tracer: c.Tracer, Ctx: c.Ctx, Deadline: deadline,
	})
}

// experimentNow is the fixed Date.now the experiments run under: the
// PLDI'13 week; any fixed instant works.
const experimentNow = 1371161337000

// errDynamicRun marks a RunDynamic failure of the program itself, as
// opposed to a front-end error.
var errDynamicRun = errors.New("dynamic run")

// RunDynamic compiles src through the study's compile cache and runs the
// library's analysis on it with the DOM emulation, driving up to 8
// registered event handlers afterwards and stopping at 1000 heap flushes
// (paper §5.1). A run stopped at the flush cap is a sealed partial Result
// (Degraded = DegradeFlushCap); any other failure of the program — an
// uncaught exception, the step budget, a deadline or cancellation — is an
// error that wraps the cause after "dynamic run: ". With cfg.FactCache set,
// a completed run is memoized and an identical re-submission is served from
// the cache byte-identically.
func RunDynamic(src string, detDOM bool, cfg Config) (*determinacy.Result, error) {
	cfg = cfg.withDefaults()
	p, err := cfg.cache.Compile("workload.js", src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	deadline, _ := cfg.Ctx.Deadline()
	res, err := determinacy.AnalyzeProgramContext(cfg.Ctx, p, determinacy.Options{
		Seed:             cfg.Seed,
		Now:              experimentNow,
		WithDOM:          true,
		DeterministicDOM: detDOM,
		RunHandlers:      8,
		MaxFlushes:       1000,
		Tracer:           cfg.Tracer,
		Deadline:         deadline,
		FactCache:        cfg.FactCache,
	})
	if err == nil && res.Partial && res.Degraded != determinacy.DegradeFlushCap {
		err = res.Stopped
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errDynamicRun, err)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Cell is one configuration outcome: completed-within-budget plus the
// dynamic analysis' heap flush count (the parenthesized numbers in Table 1).
type Table1Cell struct {
	Completed bool
	// Flushes counts the heap flushes the execution made; the final flush
	// that seals a run stopped at the cap is not one of them, so a capped
	// run reports 1001, the flush that tripped the cap of 1000 included.
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
	return runTable1(workload.JQueryVersions, cfg.withDefaults())
}

// RunTable1Version runs the one row of Table 1 for v, like RunTable1
// (used by benchmarks).
func RunTable1Version(v workload.JQueryVersion, cfg Config) Table1Row {
	return runTable1([]workload.JQueryVersion{v}, cfg.withDefaults())[0]
}

func runTable1(versions []workload.JQueryVersion, cfg Config) []Table1Row {
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
		// The first failing stage sets Err and the later cells stay zero.
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

// baselineCell runs the plain points-to analysis on the original program.
func baselineCell(src string, cfg Config) (Table1Cell, error) {
	p, err := cfg.cache.Compile("jquery.js", src)
	if err != nil {
		return Table1Cell{}, err
	}
	start := time.Now()
	base, err := cfg.solve(p)
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

// specCell runs the Spec or Spec+DetDOM configuration: dynamic facts,
// specialization, then points-to on the specialized program.
func specCell(src string, detDOM bool, cfg Config) (Table1Cell, error) {
	dyn, err := RunDynamic(src, detDOM, cfg)
	if err != nil {
		return Table1Cell{}, err
	}
	cell := Table1Cell{
		Flushes:    dyn.Stats.HeapFlushes - dyn.Stats.FlushReasons["partial-seal"],
		FlushLimit: dyn.Degraded == determinacy.DegradeFlushCap,
	}
	spec, err := dyn.Specialize(determinacy.SpecializeOptions{})
	if err != nil {
		return cell, err
	}
	cell.SpecStats = spec.Stats
	p, err := cfg.cache.Compile("jquery-spec.js", spec.Source)
	if err != nil {
		return cell, fmt.Errorf("specialized output does not compile: %w", err)
	}
	start := time.Now()
	pt, err := cfg.solve(p)
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
	if errors.Is(err, errDynamicRun) {
		// The benchmark cannot be run (missing code / unsupported DOM API),
		// mirroring the paper's four disregarded programs.
		return out
	}
	if err != nil {
		out.Err = err
		return out
	}
	out.Runnable = true
	out.SyntacticHandled = syntacticBaselineHandles(dyn.Program())

	spec, err := dyn.Specialize(determinacy.SpecializeOptions{EliminateEval: true})
	if err != nil {
		out.Err = err
		return out
	}
	out.Sites = spec.EvalSites

	p, err := cfg.cache.Compile("spec.js", spec.Source)
	if err != nil {
		out.Err = fmt.Errorf("specialized output does not compile: %w", err)
		return out
	}
	pt, err := cfg.solve(p)
	if err != nil {
		out.Err = err
		return out
	}
	out.Handled = len(pt.EvalSites) == 0 && !pt.BudgetExceeded && pt.Interrupted == nil
	if !out.Handled {
		out.Reason = worstReason(spec.EvalSites)
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
