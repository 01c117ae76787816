package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"determinacy/internal/ast"
	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/experiment"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/parser"
	"determinacy/internal/pointsto"
	"determinacy/internal/specialize"
	"determinacy/internal/vm"
	"determinacy/internal/workload"
)

// The paper workload: one closed-loop client drives every paper cell layer
// by layer — the 12 Table 1 cells, then the 56 §5.2 eval-study runs — in
// a fixed order, whole passes at a time. Its inputs are the paper's fixed
// artifacts; the seed changes nothing.

// Settings of internal/experiment's defaults, which the pinned values
// below were measured under.
const (
	paperBudget     = 60_000
	paperMaxFlushes = 1000
	paperHandlers   = 8
	paperNow        = 1371161337000
)

type paperKind int

const (
	kindBaseline paperKind = iota
	kindSpec
	kindDetDOM
	kindEvalDOM
	kindEvalDetDOM
)

var kindNames = [...]string{"baseline", "spec", "spec_detdom", "dom", "detdom"}

type paperJob struct {
	kind    paperKind
	version workload.JQueryVersion
	src     string
	bench   workload.EvalBenchmark
}

func (j paperJob) key() string {
	if j.kind >= kindEvalDOM {
		return fmt.Sprintf("paper/%s/%s", kindNames[j.kind], j.bench.Name)
	}
	return fmt.Sprintf("paper/table1/%s/%s", j.version, kindNames[j.kind])
}

// table1Cell is the pinned outcome of one Table 1 cell: the mark, the
// flush string, and the propagation count (BENCH_2.json, EXPERIMENTS.md).
type table1Cell struct {
	mark, flushes string
	propagations  int
}

var table1Pinned = map[string]table1Cell{
	"1.0/baseline":    {"FAIL", "0", 60001},
	"1.0/spec":        {"ok", "281", 8677},
	"1.0/spec_detdom": {"ok", "1", 9053},
	"1.1/baseline":    {"FAIL", "0", 60001},
	"1.1/spec":        {"FAIL", "284", 60001},
	"1.1/spec_detdom": {"ok", "4", 9078},
	"1.2/baseline":    {"ok", "0", 357},
	"1.2/spec":        {"ok", ">1000", 357},
	"1.2/spec_detdom": {"ok", "0", 363},
	"1.3/baseline":    {"FAIL", "0", 60001},
	"1.3/spec":        {"FAIL", ">1000", 60001},
	"1.3/spec_detdom": {"FAIL", ">1000", 60001},
}

// evalStudyPinned are the §5.2 counts per DOM mode (BENCH_2.json):
// total, runnable, handled, handled beyond the syntactic baseline, and the
// failures by reason.
type evalStudyCounts struct {
	total, runnable, handled, onlyOurs int
	byReason                           map[string]int
}

var evalStudyPinned = map[paperKind]evalStudyCounts{
	kindEvalDOM: {28, 24, 14, 7, map[string]int{
		"indeterminate-argument": 1, "indeterminate-callee": 1, "indeterminate-loop-bound": 4, "not-covered": 4}},
	kindEvalDetDOM: {28, 24, 20, 10, map[string]int{
		"indeterminate-argument": 1, "indeterminate-loop-bound": 1, "not-covered": 2}},
}

// paperCounts accumulates the deterministic counts of a pass.
type paperCounts struct {
	steps, heapFlushes, envFlushes, cfs, cfAborts, flushCapped int
	propagations, budgetExceeded, handlersRan                  int
	clones, staticized, unrolled, evalsEliminated, instrs      int
}

// evalOutcome is one eval-study job's result.
type evalOutcome struct {
	runnable, handled, syntactic bool
	reason                       string
}

func (o evalOutcome) String() string {
	r := o.reason
	if r == "" {
		r = "-"
	}
	return fmt.Sprintf("%t,%t,%s,%t", o.runnable, o.handled, r, o.syntactic)
}

type paperBench struct {
	jobs []paperJob
}

func paperJobs() []paperJob {
	var jobs []paperJob
	for _, v := range workload.JQueryVersions {
		src := workload.JQuery(v)
		for _, k := range []paperKind{kindBaseline, kindSpec, kindDetDOM} {
			jobs = append(jobs, paperJob{kind: k, version: v, src: src})
		}
	}
	corpus := workload.EvalCorpus()
	for _, k := range []paperKind{kindEvalDOM, kindEvalDetDOM} {
		for _, b := range corpus {
			jobs = append(jobs, paperJob{kind: k, bench: b})
		}
	}
	return jobs
}

func (p *paperBench) setup(seed uint64) error {
	p.jobs = paperJobs()
	// Warm up on the cheap jobs: jQuery 1.2's cells and the eval study.
	for _, j := range p.jobs {
		if j.kind >= kindEvalDOM || j.version == workload.JQ12 {
			if _, err := p.runJob(j, vm.EngineDefault, nil, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *paperBench) close() {}

func (p *paperBench) timingFromCountPass() bool { return false }

// run drives whole passes until d has passed; each pass is a slice.
func (p *paperBench) run(w *window, d time.Duration, rec *recorder) error {
	start := time.Now()
	for time.Since(start) < d {
		var pass checkError
		study := map[paperKind]*evalStudyCounts{}
		for _, j := range p.jobs {
			t0 := time.Now()
			out, err := p.runJob(j, vm.EngineDefault, rec, nil)
			ms := float64(time.Since(t0)) / 1e6
			w.attempted++
			if err != nil {
				pass.failf("%s: %v", j.key(), err)
				w.failed++
				ms = d.Seconds() * 1000
			} else if j.kind >= kindEvalDOM {
				tallyEval(study, j.kind, out)
			}
			w.latMS = append(w.latMS, ms)
		}
		checkStudy(&pass, study)
		if err := pass.err(); err != nil {
			logf("paper pass: %v", err)
			w.failed++ // a pass whose counts miss the pinned ones fails as one job
		}
		w.cut(w.attempted - w.failed)
	}
	return nil
}

// countPass runs one pass traced, collecting the deterministic counts, and
// times core execution of the same dynamic runs under the tree engine.
func (p *paperBench) countPass() (map[string]float64, *recorder, int, error) {
	rec := &recorder{}
	var c paperCounts
	var ck checkError
	study := map[paperKind]*evalStudyCounts{}
	for _, j := range p.jobs {
		out, err := p.runJob(j, vm.EngineBytecode, rec, &c)
		if err != nil {
			ck.failf("%s: %v", j.key(), err)
			continue
		}
		if j.kind >= kindEvalDOM {
			tallyEval(study, j.kind, out)
		}
	}
	checkStudy(&ck, study)
	var dynamic []paperJob
	for _, j := range p.jobs {
		if j.kind != kindBaseline {
			dynamic = append(dynamic, j)
		}
	}
	ratio, err := engineRatio(len(dynamic), func(i int, eng vm.Engine, r *recorder) error {
		file, src, detDOM := dynamicInput(dynamic[i])
		_, err := runDynamic(file, src, detDOM, eng, r, nil)
		return err
	})
	if err != nil {
		ck.failf("engine ratio: %v", err)
	}
	m := map[string]float64{
		"core.exec_tree_over_bytecode":   ratio,
		"core.steps":                     float64(c.steps),
		"core.heap_flushes":              float64(c.heapFlushes),
		"core.env_flushes":               float64(c.envFlushes),
		"core.counterfactuals":           float64(c.cfs),
		"core.cf_aborts":                 float64(c.cfAborts),
		"core.flush_capped_runs":         float64(c.flushCapped),
		"pointsto.propagations":          float64(c.propagations),
		"pointsto.budget_exceeded":       float64(c.budgetExceeded),
		"dom.handlers_ran":               float64(c.handlersRan),
		"specialize.clones":              float64(c.clones),
		"specialize.staticized":          float64(c.staticized),
		"specialize.unrolled_iterations": float64(c.unrolled),
		"specialize.evals_eliminated":    float64(c.evalsEliminated),
		"ir.instrs":                      float64(c.instrs),
	}
	return m, rec, len(p.jobs), ck.err()
}

func dynamicInput(j paperJob) (file, src string, detDOM bool) {
	if j.kind >= kindEvalDOM {
		return "workload.js", j.bench.Source, j.kind == kindEvalDetDOM
	}
	return "workload.js", j.src, j.kind == kindDetDOM
}

// runJob runs one paper cell and checks it against its pinned or golden
// outcome. For eval-study jobs it returns the outcome for the pass tally.
func (p *paperBench) runJob(j paperJob, eng vm.Engine, rec *recorder, c *paperCounts) (evalOutcome, error) {
	if j.kind >= kindEvalDOM {
		out, err := evalJob(j, eng, rec, c)
		if err != nil {
			return out, err
		}
		if want := golden[j.key()]; out.String() != want {
			return out, fmt.Errorf("outcome %s, golden %s", out, want)
		}
		return out, nil
	}
	cell, err := table1Job(j, eng, rec, c)
	if err != nil {
		return evalOutcome{}, err
	}
	want := table1Pinned[fmt.Sprintf("%s/%s", j.version, kindNames[j.kind])]
	if cell.Mark() != want.mark || cell.FlushStr() != want.flushes || cell.Propagations != want.propagations {
		return evalOutcome{}, fmt.Errorf("cell %s (%s) %d propagations, pinned %s (%s) %d",
			cell.Mark(), cell.FlushStr(), cell.Propagations, want.mark, want.flushes, want.propagations)
	}
	return evalOutcome{}, nil
}

// frontEnd parses and lowers src, timing each layer.
func frontEnd(file, src string, rec *recorder, c *paperCounts) (*ast.Program, *ir.Module, error) {
	rec.begin(lParser)
	prog, err := parser.Parse(file, src)
	rec.end(lParser)
	if err != nil {
		return nil, nil, err
	}
	rec.begin(lIR)
	mod, err := ir.Lower(prog)
	rec.end(lIR)
	if err != nil {
		return nil, nil, err
	}
	if c != nil {
		c.instrs += mod.NumInstrs
	}
	return prog, mod, nil
}

func solve(mod *ir.Module, rec *recorder, c *paperCounts) (*pointsto.Result, error) {
	rec.begin(lPointsto)
	res, err := pointsto.AnalyzeGuarded(mod, pointsto.Options{Budget: paperBudget, Tracer: rec.tracer()})
	rec.end(lPointsto)
	if err == nil && c != nil {
		c.propagations += res.Propagations
		if res.BudgetExceeded {
			c.budgetExceeded++
		}
	}
	return res, err
}

type dynRun struct {
	prog       *ast.Program
	mod        *ir.Module
	store      *facts.Store
	stats      core.Stats
	flushLimit bool
	runErr     error
}

// runDynamic is experiment.RunDynamic without the caches, one layer call
// at a time.
func runDynamic(file, src string, detDOM bool, eng vm.Engine, rec *recorder, c *paperCounts) (*dynRun, error) {
	prog, mod, err := frontEnd(file, src, rec, c)
	if err != nil {
		return nil, err
	}
	store := facts.NewStore()
	rec.begin(lCore)
	a := core.New(mod, store, core.Options{
		Now: paperNow, MaxFlushes: paperMaxFlushes, Out: io.Discard, Tracer: rec.tracer(), Engine: eng,
	})
	rec.end(lCore)
	rec.begin(lDOM)
	binding := dom.InstallCore(a, dom.NewDocument(dom.Options{}), detDOM)
	rec.end(lDOM)
	rec.begin(lCore)
	_, runErr := a.Run()
	rec.end(lCore)
	out := &dynRun{prog: prog, mod: mod, store: store}
	if runErr == nil || errors.Is(runErr, core.ErrFlushLimit) {
		rec.begin(lDOM)
		n, herr := binding.RunHandlers(paperHandlers)
		rec.end(lDOM)
		if c != nil {
			c.handlersRan += n
		}
		if runErr == nil {
			runErr = herr
		}
	}
	if errors.Is(runErr, core.ErrFlushLimit) {
		out.flushLimit = true
		runErr = nil
	}
	out.runErr = runErr
	out.stats = a.Stats()
	if c != nil {
		st := out.stats
		c.steps += st.Steps
		c.heapFlushes += st.HeapFlushes
		c.envFlushes += st.EnvFlushes
		c.cfs += st.Counterfacts
		c.cfAborts += st.CFAborts
		if out.flushLimit {
			c.flushCapped++
		}
	}
	return out, nil
}

// specializeAndPrint runs the specializer and prints its output program.
func specializeAndPrint(dyn *dynRun, opts specialize.Options, rec *recorder, c *paperCounts) (*specialize.Result, string, error) {
	rec.begin(lSpecialize)
	res, err := specialize.Specialize(dyn.prog, dyn.mod, dyn.store, opts)
	rec.end(lSpecialize)
	if err != nil {
		return nil, "", err
	}
	if c != nil {
		c.clones += res.Stats.ClonesCreated
		c.staticized += res.Stats.AccessesStaticized
		c.unrolled += res.Stats.UnrolledIterations
		c.evalsEliminated += res.Stats.EvalsEliminated
	}
	rec.begin(lAST)
	src := ast.Print(res.Program)
	rec.end(lAST)
	return res, src, nil
}

// table1Job is one Table 1 cell, as internal/experiment computes it.
func table1Job(j paperJob, eng vm.Engine, rec *recorder, c *paperCounts) (experiment.Table1Cell, error) {
	var cell experiment.Table1Cell
	if j.kind == kindBaseline {
		_, mod, err := frontEnd("jquery.js", j.src, rec, c)
		if err != nil {
			return cell, err
		}
		pt, err := solve(mod, rec, c)
		if err != nil {
			return cell, err
		}
		cell.Completed = !pt.BudgetExceeded && pt.Interrupted == nil
		cell.Propagations = pt.Propagations
		return cell, nil
	}
	file, src, detDOM := dynamicInput(j)
	dyn, err := runDynamic(file, src, detDOM, eng, rec, c)
	if err != nil {
		return cell, err
	}
	if dyn.runErr != nil {
		return cell, fmt.Errorf("dynamic run: %w", dyn.runErr)
	}
	cell.Flushes, cell.FlushLimit = dyn.stats.HeapFlushes, dyn.flushLimit
	_, specSrc, err := specializeAndPrint(dyn, specialize.Options{}, rec, c)
	if err != nil {
		return cell, err
	}
	_, mod, err := frontEnd("jquery-spec.js", specSrc, rec, c)
	if err != nil {
		return cell, fmt.Errorf("specialized output does not compile: %w", err)
	}
	pt, err := solve(mod, rec, c)
	if err != nil {
		return cell, err
	}
	cell.Completed = !pt.BudgetExceeded && pt.Interrupted == nil
	cell.Propagations = pt.Propagations
	return cell, nil
}

// evalJob is one §5.2 eval-study run, as internal/experiment computes it.
func evalJob(j paperJob, eng vm.Engine, rec *recorder, c *paperCounts) (evalOutcome, error) {
	var out evalOutcome
	file, src, detDOM := dynamicInput(j)
	dyn, err := runDynamic(file, src, detDOM, eng, rec, c)
	if err != nil {
		return out, err
	}
	if dyn.runErr != nil {
		return out, nil // not runnable, like the paper's disregarded programs
	}
	out.runnable = true
	out.syntactic = syntacticBaselineHandles(dyn.prog)
	res, specSrc, err := specializeAndPrint(dyn, specialize.Options{EliminateEval: true}, rec, c)
	if err != nil {
		return out, err
	}
	_, mod, err := frontEnd("spec.js", specSrc, rec, c)
	if err != nil {
		return out, fmt.Errorf("specialized output does not compile: %w", err)
	}
	pt, err := solve(mod, rec, c)
	if err != nil {
		return out, err
	}
	out.handled = len(pt.EvalSites) == 0 && !pt.BudgetExceeded && pt.Interrupted == nil
	if !out.handled {
		out.reason = worstReason(res.EvalSites)
	}
	return out, nil
}

func worstReason(sites []specialize.EvalSite) string {
	worst := specialize.EvalEliminated
	for _, s := range sites {
		if s.Status > worst {
			worst = s.Status
		}
	}
	if worst == specialize.EvalEliminated {
		return "residual-eval"
	}
	return worst.String()
}

// syntacticBaselineHandles is the unevalizer-style check of
// internal/experiment: every eval argument is a string literal or a
// concatenation of them.
func syntacticBaselineHandles(prog *ast.Program) bool {
	ok := true
	ast.Walk(prog, func(n ast.Node) bool {
		call, isCall := n.(*ast.Call)
		if !isCall {
			return true
		}
		if id, isIdent := call.Callee.(*ast.Ident); isIdent && id.Name == "eval" {
			if len(call.Args) != 1 || !syntacticConst(call.Args[0]) {
				ok = false
			}
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
	}
	return false
}

func tallyEval(study map[paperKind]*evalStudyCounts, k paperKind, o evalOutcome) {
	s := study[k]
	if s == nil {
		s = &evalStudyCounts{byReason: map[string]int{}}
		study[k] = s
	}
	s.total++
	if !o.runnable {
		return
	}
	s.runnable++
	if o.handled {
		s.handled++
		if !o.syntactic {
			s.onlyOurs++
		}
	} else {
		s.byReason[o.reason]++
	}
}

// checkStudy compares a pass's §5.2 counts with the pinned ones.
func checkStudy(ck *checkError, study map[paperKind]*evalStudyCounts) {
	for k, want := range evalStudyPinned {
		got := study[k]
		if got == nil {
			ck.failf("eval study %s: no runs", kindNames[k])
			continue
		}
		if got.total != want.total || got.runnable != want.runnable || got.handled != want.handled || got.onlyOurs != want.onlyOurs {
			ck.failf("eval study %s: %d/%d/%d/%d, pinned %d/%d/%d/%d", kindNames[k],
				got.total, got.runnable, got.handled, got.onlyOurs, want.total, want.runnable, want.handled, want.onlyOurs)
		}
		for r, n := range want.byReason {
			if got.byReason[r] != n {
				ck.failf("eval study %s: %d %s failures, pinned %d", kindNames[k], got.byReason[r], r, n)
			}
		}
		if len(got.byReason) != len(want.byReason) {
			ck.failf("eval study %s: failure reasons %v, pinned %v", kindNames[k], got.byReason, want.byReason)
		}
	}
}

// recordPaperGolden takes the per-benchmark outcomes from
// internal/experiment itself, so the layer-by-layer path above is checked
// against the program's own harness.
func recordPaperGolden() (map[string]string, error) {
	g := map[string]string{}
	for _, k := range []paperKind{kindEvalDOM, kindEvalDetDOM} {
		study := experiment.RunEvalStudy(k == kindEvalDetDOM, experiment.Config{Workers: 1})
		for _, b := range study.Benchmarks {
			if b.Err != nil {
				return nil, fmt.Errorf("eval study %s: %w", b.Name, b.Err)
			}
			o := evalOutcome{runnable: b.Runnable, handled: b.Handled, syntactic: b.SyntacticHandled, reason: b.Reason}
			g[paperJob{kind: k, bench: workload.EvalBenchmark{Name: b.Name}}.key()] = o.String()
		}
	}
	return g, nil
}
