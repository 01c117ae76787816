// Package determinacy is a Go implementation of dynamic determinacy
// analysis for a JavaScript subset (mini-JS), reproducing "Dynamic
// Determinacy Analysis" (Schäfer, Sridharan, Dolby, Tip — PLDI 2013).
//
// The analysis instruments a single program execution and infers
// determinacy facts — statements of the form ⟦e⟧ c = v meaning the
// expression at program point e has value v under calling context c in
// *every* execution. Facts drive two clients: specializing a static
// points-to analysis (branch pruning, staticizing dynamic property
// accesses, loop unrolling, context cloning) and eliminating eval calls.
//
// Quick start:
//
//	result, err := determinacy.Analyze(src, determinacy.Options{})
//	for _, f := range result.Facts() {
//	    fmt.Println(f)
//	}
//	spec, err := result.Specialize(determinacy.SpecializeOptions{})
//	fmt.Println(spec.Source)
//
// The runnable programs under examples/ and the experiment harness in
// cmd/detbench exercise the full pipeline; DESIGN.md maps every paper
// artifact to its implementation.
package determinacy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"determinacy/internal/ast"
	"determinacy/internal/batch"
	"determinacy/internal/batch/progcache"
	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/factcache"
	"determinacy/internal/facts"
	"determinacy/internal/guard"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
	"determinacy/internal/parser"
	"determinacy/internal/pointsto"
	"determinacy/internal/specialize"
	"determinacy/internal/vm"
)

// Engine named an execution engine.
//
// Deprecated: ignored; there is one engine.
type Engine = vm.Engine

// Engine names.
//
// Deprecated: ignored; there is one engine.
const (
	EngineDefault  = vm.EngineDefault
	EngineTree     = vm.EngineTree
	EngineBytecode = vm.EngineBytecode
)

// Observability aliases, so embedders configure tracing without importing
// the internal package path directly.
type (
	// Tracer receives the pipeline's typed event stream; see internal/obs
	// for the event taxonomy and the built-in sinks.
	Tracer = obs.Tracer
	// TraceEvent is one trace record.
	TraceEvent = obs.Event
	// Metrics is a registry of named counters/gauges/histograms.
	Metrics = obs.Metrics
)

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Analysis outcome errors, re-exported so CLI frontends can map them to
// distinct exit codes. All of them support errors.Is/errors.As through
// every public entry point, including batch (AnalyzeRuns) result slots.
var (
	// ErrFlushLimit reports that the analysis stopped at the heap-flush
	// cap; facts collected before the stop remain sound.
	ErrFlushLimit = core.ErrFlushLimit
	// ErrBudget reports that the instrumented execution exhausted its step
	// budget.
	ErrBudget = core.ErrBudget
	// ErrStack reports instrumented call-stack overflow.
	ErrStack = core.ErrStack
	// ErrDeadline reports that a wall-clock deadline expired mid-run; it
	// wraps context.DeadlineExceeded.
	ErrDeadline = guard.ErrDeadline
	// ErrParseDepth reports that the parser hit its nesting-depth cap.
	ErrParseDepth = parser.ErrDepth
	// ErrUncaughtException reports that the analyzed program threw an
	// exception that nothing caught.
	ErrUncaughtException = errors.New("determinacy: uncaught exception in analyzed program")
)

// RunError is the structured record of a panic recovered at a run
// boundary: phase, program point, and the recovered value with its stack.
// Extract one from any analysis error with errors.As.
type RunError = guard.RunError

// DegradeReason classifies why a run returned a partial result.
type DegradeReason = guard.DegradeReason

// Degradation reasons reported in Result.Degraded.
const (
	DegradeNone     = guard.DegradeNone
	DegradeBudget   = guard.DegradeBudget
	DegradeFlushCap = guard.DegradeFlushCap
	DegradeDeadline = guard.DegradeDeadline
	DegradeCancel   = guard.DegradeCancel
)

// Options configures a dynamic determinacy analysis run.
type Options struct {
	// Seed drives Math.random (an indeterminate source; the seed only
	// selects the concrete witness execution).
	Seed uint64
	// Now backs Date.now (indeterminate source).
	Now float64
	// Inputs backs the __input(name) native (indeterminate sources).
	Inputs map[string]Value
	// Out receives console.log output; nil discards it.
	Out io.Writer
	// WithDOM installs the synthetic DOM emulation (document, window,
	// navigator, timers). DeterministicDOM additionally applies the paper's
	// Spec+DetDOM assumption (§5.1): DOM reads are determinate.
	WithDOM          bool
	DeterministicDOM bool
	// RunHandlers drives up to this many registered DOM event handlers
	// after the main script (each entry flushes the heap, §4).
	RunHandlers int
	// MaxCounterfactualDepth is the cut-off k for nested counterfactual
	// executions (0 = default 4).
	MaxCounterfactualDepth int
	// MaxFlushes stops the analysis after this many heap flushes
	// (0 = unlimited; the paper uses 1000). Facts gathered before the stop
	// remain sound.
	MaxFlushes int
	// MaxSteps bounds the executed instruction count (0 = default).
	MaxSteps int
	// Deadline stops the run when the wall clock passes it (zero = none).
	// The interpreter checks it every few thousand steps; a run stopped by
	// the deadline returns a partial Result (Degraded = DegradeDeadline)
	// whose facts are sound. Combine with the Context entry points
	// (AnalyzeContext etc.) for cancellation.
	Deadline time.Time

	// Deprecated: ignored; there is one engine.
	Engine Engine

	// Ablations (see DESIGN.md): disable counterfactual execution,
	// information-flow-style immediate tainting, µJS-faithful locals.
	DisableCounterfactual bool
	ImmediateTaint        bool
	MuJSLocals            bool

	// Tracer observes the whole pipeline: phase begin/end (parse, lower,
	// exec, handlers, specialize), heap/env flushes with reasons,
	// counterfactual nesting, taint spread, fact recording and eval
	// encounters. nil disables tracing with near-zero overhead.
	Tracer Tracer

	// Workers bounds how many instrumented runs AnalyzeRuns executes
	// concurrently (0 = GOMAXPROCS, 1 = strictly serial). Per-seed results
	// are merged in seed submission order, so the merged facts and
	// statistics are identical for every setting; see internal/batch.
	Workers int

	// FactCache, when non-nil, memoizes completed analyses at function
	// granularity in an on-disk fact database — the L2 cache under the
	// compile cache: a re-submitted (source, options) pair is served from
	// cached facts without re-executing, byte-identical to a fresh run.
	// Partial, degraded, errored, or eval-containing runs never populate
	// it. See the README's Caching section and internal/factcache.
	FactCache *FactCache
}

// Value is a concrete input value for Options.Inputs.
type Value = interp.Value

// Convenience constructors for input values.
var (
	NumberValue = interp.NumberVal
	StringValue = interp.StringVal
	BoolValue   = interp.BoolVal
)

// Fact is one determinacy fact, rendered for consumption.
type Fact struct {
	// Line and Col locate the program point in the source.
	Line, Col int
	// Point describes the instruction at the program point.
	Point string
	// Context renders the qualifying call stack (site lines with
	// occurrence indices), empty for top-level facts.
	Context string
	// Determinate reports ⟦e⟧c = v (true) versus ⟦e⟧c = ? (false).
	Determinate bool
	// Value renders v for determinate facts (and the concretely observed
	// value otherwise).
	Value string
}

func (f Fact) String() string {
	ctx := f.Context
	if ctx == "" {
		ctx = "·"
	}
	v := f.Value
	if !f.Determinate {
		v = "?"
	}
	return fmt.Sprintf("[[ %s @%d:%d ]] %s = %s", f.Point, f.Line, f.Col, ctx, v)
}

// Result holds the outcome of an analysis run.
type Result struct {
	prog  *ast.Program
	mod   *ir.Module
	store *facts.Store
	// tracer carries the run's tracer forward so client phases
	// (Specialize) join the same event stream.
	tracer obs.Tracer

	// Stats summarizes the run: heap flushes by reason, counterfactual
	// executions and aborts, executed steps.
	Stats core.Stats
	// Stopped is non-nil when the analysis stopped early (flush cap, step
	// budget, deadline, or cancellation); the collected facts are still
	// sound. Partial and Degraded say why in structured form.
	Stopped error
	// Partial reports that the run stopped before completing: the facts
	// reflect only the executed prefix but every one of them is sound (the
	// analysis flushes conservatively at the stop point, §4.3).
	Partial bool
	// Degraded classifies a partial run: DegradeBudget, DegradeFlushCap,
	// DegradeDeadline, or DegradeCancel (DegradeNone for complete runs).
	Degraded DegradeReason
	// HandlersRan counts DOM event handlers driven after the main script.
	HandlersRan int
}

// Analyze parses src, runs it under the instrumented semantics and collects
// determinacy facts.
func Analyze(src string, opts Options) (*Result, error) {
	return AnalyzeFile("program.js", src, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation: when ctx is
// cancelled mid-run the analysis stops at the next checkpoint and returns
// a partial Result (Degraded = DegradeCancel) whose facts are sound.
func AnalyzeContext(ctx context.Context, src string, opts Options) (*Result, error) {
	return AnalyzeFileContext(ctx, "program.js", src, opts)
}

// AnalyzeFile is Analyze with an explicit display name for diagnostics.
func AnalyzeFile(name, src string, opts Options) (*Result, error) {
	return AnalyzeFileContext(context.Background(), name, src, opts)
}

// AnalyzeFileContext is AnalyzeFile with cooperative cancellation.
func AnalyzeFileContext(ctx context.Context, name, src string, opts Options) (*Result, error) {
	tr := opts.Tracer
	endParse := obs.PhaseScope(tr, "parse")
	prog, err := parser.Parse(name, src)
	endParse()
	if err != nil {
		return nil, err
	}
	endLower := obs.PhaseScope(tr, "lower")
	mod, err := ir.Lower(prog)
	endLower()
	if err != nil {
		return nil, err
	}
	return analyzeLowered(ctx, prog, mod, opts)
}

// degradeReason classifies an execution stop as a graceful degradation.
// DegradeNone means the error is a genuine failure, not a resource stop.
func degradeReason(err error) DegradeReason {
	switch {
	case err == nil:
		return DegradeNone
	case errors.Is(err, core.ErrFlushLimit):
		return DegradeFlushCap
	case errors.Is(err, core.ErrBudget):
		return DegradeBudget
	default:
		return guard.ContextReason(err)
	}
}

// degrade finalizes a partial run: conservatively seals the fact store
// (final flush, §4.3), records why, and emits a guard trace event. The
// returned Result is usable — its facts are sound for the executed prefix.
func degrade(res *Result, a *core.Analysis, runErr error, reason DegradeReason) (*Result, error) {
	a.SealPartial()
	res.Partial = true
	res.Degraded = reason
	res.Stopped = runErr
	res.Stats = a.Stats()
	if res.tracer != nil {
		res.tracer.Event(obs.Event{Kind: obs.EvGuard, Phase: "degrade", Detail: string(reason)})
	}
	return res, nil
}

// FactCache is the public handle on an on-disk function-level fact
// database (internal/factcache) — the L2 cache under the compile cache.
// One FactCache is safe to share across concurrent analyses; see
// Options.FactCache for the memoization contract.
type FactCache struct{ c *factcache.Cache }

// OpenFactCache creates or opens the fact database rooted at dir.
func OpenFactCache(dir string) (*FactCache, error) {
	c, err := factcache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &FactCache{c: c}, nil
}

// WithMetrics attaches a metrics registry; the cache then maintains
// factcache_* hit/miss/join/invalidation series live. Returns the cache
// for chaining.
func (f *FactCache) WithMetrics(m *Metrics) *FactCache {
	f.c.WithMetrics(m)
	return f
}

// Internal exposes the underlying cache for in-module embedders (the
// diffcheck memo oracle and tests read its statistics).
func (f *FactCache) Internal() *factcache.Cache { return f.c }

// factSig canonicalizes the fact-shaping options into a cache signature.
func factSig(opts Options) factcache.Sig {
	sig := factcache.Sig{
		Seed:                  opts.Seed,
		NowBits:               factcache.NumSigBits(opts.Now),
		WithDOM:               opts.WithDOM,
		DetDOM:                opts.DeterministicDOM,
		RunHandlers:           opts.RunHandlers,
		MaxCFDepth:            opts.MaxCounterfactualDepth,
		MaxFlushes:            opts.MaxFlushes,
		MaxSteps:              opts.MaxSteps,
		DisableCounterfactual: opts.DisableCounterfactual,
		ImmediateTaint:        opts.ImmediateTaint,
		MuJSLocals:            opts.MuJSLocals,
	}
	for name, v := range opts.Inputs {
		sig.Inputs = append(sig.Inputs, factcache.InputSig{
			Name: name, Kind: int(v.Kind),
			NumBits: factcache.NumSigBits(v.N), Str: v.S, Bool: v.B,
		})
	}
	return sig
}

// captureWriter tees console output for caching, bounded so a printing
// loop can't balloon the fact DB; overflowing runs simply aren't cached.
type captureWriter struct {
	b        []byte
	overflow bool
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if len(w.b)+len(p) > factcache.MaxOutputBytes {
		w.overflow = true
	} else {
		w.b = append(w.b, p...)
	}
	return len(p), nil
}

// memoState carries one analyzeLowered call's fact-cache context.
type memoState struct {
	fc  *factcache.Cache
	key factcache.Key
	rec *factcache.Recorder
	out *captureWriter
}

// skip records a non-cacheable outcome, tolerating absent memoization.
func (m *memoState) skip(reason string) {
	if m != nil {
		m.fc.Skip(reason)
	}
}

// analyzeLowered runs the instrumented semantics over an already-compiled
// program. The module is only read: eval'd code lowers into the run's own
// layer, which the Result exposes.
//
// With Options.FactCache set, a completed run is memoized and an exact
// re-submission is served from the cache: the fact store is stitched from
// per-function chunks through the ordinary Store.Record path, and output,
// statistics and handler count replay from the manifest, so a warm result
// is byte-identical to a cold one. Only clean completions are stored —
// every degraded, errored or eval-lowering path skips the cache.
func analyzeLowered(ctx context.Context, prog *ast.Program, mod *ir.Module, opts Options) (*Result, error) {
	tr := opts.Tracer
	var memo *memoState
	coreOut := opts.Out
	if opts.FactCache != nil {
		fc := opts.FactCache.c
		key := factcache.KeyFor(mod.File, mod.Source, factSig(opts))
		if hit, ok := fc.Lookup(key); ok {
			if opts.Out != nil {
				opts.Out.Write(hit.Output)
			}
			if tr != nil {
				tr.Event(obs.Event{Kind: obs.EvCache, Phase: "factcache", Detail: "hit"})
			}
			return &Result{prog: prog, mod: mod, store: hit.Store, tracer: tr,
				Stats: hit.Stats, HandlersRan: hit.HandlersRan}, nil
		}
		if tr != nil {
			tr.Event(obs.Event{Kind: obs.EvCache, Phase: "factcache", Detail: "miss"})
		}
		// Incremental report: which functions changed since the last cached
		// run of this (program, options) anchor.
		fc.Diff(key, mod)
		memo = &memoState{fc: fc, key: key, rec: factcache.NewRecorder(), out: &captureWriter{}}
		if coreOut != nil {
			coreOut = io.MultiWriter(coreOut, memo.out)
		} else {
			coreOut = memo.out
		}
	}
	store := facts.NewStore()
	coreOpts := core.Options{
		Seed:                   opts.Seed,
		Now:                    opts.Now,
		Inputs:                 opts.Inputs,
		Out:                    coreOut,
		MaxCounterfactualDepth: opts.MaxCounterfactualDepth,
		MaxFlushes:             opts.MaxFlushes,
		MaxSteps:               opts.MaxSteps,
		DisableCounterfactual:  opts.DisableCounterfactual,
		ImmediateTaint:         opts.ImmediateTaint,
		MuJSLocals:             opts.MuJSLocals,
		Tracer:                 tr,
		Ctx:                    ctx,
		Deadline:               opts.Deadline,
	}
	if memo != nil {
		coreOpts.OnEnterFunc = memo.rec.OnEnter
	}
	a := core.New(mod, store, coreOpts)
	res := &Result{prog: prog, mod: a.Mod, store: store, tracer: tr}

	var binding *dom.CoreBinding
	if opts.WithDOM {
		binding = dom.InstallCore(a, dom.NewDocument(dom.Options{}), opts.DeterministicDOM)
	}
	endExec := obs.PhaseScope(tr, "exec")
	_, runErr := a.Run()
	endExec()
	if runErr != nil {
		if reason := degradeReason(runErr); reason != DegradeNone {
			memo.skip("partial")
			return degrade(res, a, runErr, reason)
		}
		res.Stats = a.Stats()
		memo.skip("error")
		var thrown *core.Thrown
		if errors.As(runErr, &thrown) {
			return nil, ErrUncaughtException
		}
		return nil, runErr
	}
	if binding != nil && opts.RunHandlers > 0 {
		n, herr := runHandlersGuarded(binding, opts.RunHandlers, tr, a.CurrentPoint)
		res.HandlersRan = n
		if herr != nil {
			if reason := degradeReason(herr); reason != DegradeNone {
				memo.skip("partial")
				return degrade(res, a, herr, reason)
			}
			res.Stats = a.Stats()
			memo.skip("error")
			return nil, herr
		}
	}
	res.Stats = a.Stats()
	if memo != nil {
		switch {
		case a.Mod.NumInstrs > mod.NumInstrs:
			// Runtime eval lowered fresh instructions whose IDs are not
			// stable across executions; such runs are never cacheable.
			memo.skip("eval")
		case memo.out.overflow:
			memo.skip("output-cap")
		default:
			memo.fc.Store(memo.key, mod, store, memo.rec, memo.out.b, res.Stats, res.HandlersRan)
		}
	}
	return res, nil
}

// runHandlersGuarded drives DOM event handlers inside a panic boundary so
// a handler crash surfaces as a structured *RunError instead of unwinding
// through the caller.
func runHandlersGuarded(binding *dom.CoreBinding, max int, tr obs.Tracer, point func() (int, string)) (n int, err error) {
	defer obs.PhaseScope(tr, "handlers")()
	defer guard.Boundary(&err, "handlers", point)
	return binding.RunHandlers(max)
}

// AnalyzeRuns performs several instrumented runs with different seeds and
// merges their fact stores, per the paper's §7: "running the determinacy
// analysis on different inputs yields more facts, which are all sound and
// hence can be used together". The merged store joins disagreeing
// observations to indeterminate; two runs claiming different determinate
// values at the same key would indicate an analysis bug and is surfaced as
// an error.
// The source compiles once, through a shared compilation cache, and the
// runs share the compiled program across a bounded worker pool
// (Options.Workers); merging per-seed results in seed submission order
// keeps the merged store and statistics identical to a serial sweep.
func AnalyzeRuns(src string, opts Options, seeds ...uint64) (*Result, error) {
	return AnalyzeRunsContext(context.Background(), src, opts, seeds...)
}

// AnalyzeRunsContext is AnalyzeRuns with cooperative cancellation. A
// cancelled ctx stops both the batch (unstarted seeds are skipped) and
// each in-flight run at its next checkpoint; a run that panics is
// quarantined by the pool and surfaced here as that seed's error without
// aborting the other seeds' work.
func AnalyzeRunsContext(ctx context.Context, src string, opts Options, seeds ...uint64) (*Result, error) {
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	prog, mod, err := runsCache.Compile("program.js", src)
	if err != nil {
		return nil, fmt.Errorf("determinacy: run with seed %d: %w", seeds[0], err)
	}
	type runOut struct {
		res *Result
		err error
	}
	pool := batch.New(opts.Workers)
	outs, qs := batch.MapCtx(ctx, pool, len(seeds), func(i int) runOut {
		o := opts
		o.Seed = seeds[i]
		res, err := analyzeLowered(ctx, prog, mod, o)
		if err != nil {
			return runOut{err: fmt.Errorf("determinacy: run with seed %d: %w", seeds[i], err)}
		}
		// Runtime-lowered eval code gets fresh instruction IDs per run, so
		// only facts at static program points merge across runs.
		res.store = res.store.Restrict(ir.ID(mod.NumInstrs))
		return runOut{res: res}
	})
	for _, q := range qs {
		outs[q.Index].err = fmt.Errorf("determinacy: run with seed %d: %w", seeds[q.Index], q.Err)
	}
	var merged *Result
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		if merged == nil {
			merged = out.res
			continue
		}
		merged.store.Merge(out.res.store)
		merged.Stats.Merge(out.res.Stats)
		// A degraded seed degrades the merge: the merged facts are sound
		// but reflect incomplete executions.
		if out.res.Partial && !merged.Partial {
			merged.Partial = true
			merged.Degraded = out.res.Degraded
			merged.Stopped = out.res.Stopped
		}
	}
	if len(merged.store.Conflicts) > 0 {
		return nil, fmt.Errorf("determinacy: %d conflicting determinate facts across runs (analysis bug)",
			len(merged.store.Conflicts))
	}
	return merged, nil
}

// runsCache backs AnalyzeRuns' compiles: content-addressed, so repeated
// sweeps over the same source skip the front end entirely.
var runsCache = progcache.New(0)

// Program is a compiled analysis input: the parsed AST plus the lowered
// module. Analyses only read it — each run lowers its eval code into a
// private layer — so one Program may back any number of runs, including
// concurrent ones.
type Program struct {
	prog *ast.Program
	mod  *ir.Module
}

// Cache is a bounded, content-addressed front-end compile cache shared
// across analyses — the compile-once layer behind AnalyzeRuns, exposed so
// long-lived embedders (cmd/detserve serves every request through one)
// can skip lex→parse→lower for repeated sources. Safe for concurrent use;
// see internal/batch/progcache for the exact sharing contract.
type Cache struct{ c *progcache.Cache }

// NewCache creates a compile cache bounded to maxEntries programs
// (non-positive selects the default capacity).
func NewCache(maxEntries int) *Cache {
	return &Cache{c: progcache.New(maxEntries)}
}

// WithMetrics attaches a metrics registry; the cache then maintains
// progcache_* hit/miss/eviction series live. Returns the cache for
// chaining.
func (c *Cache) WithMetrics(m *Metrics) *Cache {
	c.c.WithMetrics(m)
	return c
}

// Compile parses and lowers src, serving repeated requests for the same
// (name, src) pair from the cache. A hit returns a Program sharing the
// cached AST and module; front-end errors are cached too.
func (c *Cache) Compile(name, src string) (*Program, error) {
	p, _, err := c.CompileHit(name, src)
	return p, err
}

// CompileHit is Compile plus a hit report: hit is true when the front-end
// work (including a cached front-end error) was served from the cache.
func (c *Cache) CompileHit(name, src string) (*Program, bool, error) {
	prog, mod, hit, err := c.c.CompileHit(name, src)
	if err != nil {
		return nil, hit, err
	}
	return &Program{prog: prog, mod: mod}, hit, nil
}

// Module returns the Program's lowered module; callers must not modify it.
func (p *Program) Module() *ir.Module { return p.mod }

// AnalyzeProgram runs the instrumented analysis over a compiled Program
// (see Cache.Compile). The Program is not modified and may be reused.
func AnalyzeProgram(p *Program, opts Options) (*Result, error) {
	return AnalyzeProgramContext(context.Background(), p, opts)
}

// AnalyzeProgramContext is AnalyzeProgram with cooperative cancellation.
func AnalyzeProgramContext(ctx context.Context, p *Program, opts Options) (*Result, error) {
	return analyzeLowered(ctx, p.prog, p.mod, opts)
}

// Run executes src under the plain concrete interpreter (no
// instrumentation), returning everything printed to console.
func Run(src string, opts Options) (string, error) {
	return RunContext(context.Background(), src, opts)
}

// RunContext is Run with cooperative cancellation and Options.Deadline
// support: the interpreter stops at its next checkpoint when ctx is
// cancelled or the deadline passes, returning the output so far together
// with the wrapped context error.
func RunContext(ctx context.Context, src string, opts Options) (string, error) {
	mod, err := ir.Compile("program.js", src)
	if err != nil {
		return "", err
	}
	var buf writerBuffer
	out := io.Writer(&buf)
	if opts.Out != nil {
		out = io.MultiWriter(&buf, opts.Out)
	}
	it := interp.New(mod, interp.Options{
		Seed: opts.Seed, Now: opts.Now, Inputs: opts.Inputs, Out: out,
		MaxSteps: opts.MaxSteps, Ctx: ctx, Deadline: opts.Deadline,
	})
	var binding *dom.Binding
	if opts.WithDOM {
		binding = dom.Install(it, dom.NewDocument(dom.Options{}))
	}
	if _, err := it.Run(); err != nil {
		return buf.String(), err
	}
	if binding != nil && opts.RunHandlers > 0 {
		if _, err := binding.RunHandlers(opts.RunHandlers); err != nil {
			return buf.String(), err
		}
	}
	return buf.String(), nil
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writerBuffer) String() string { return string(w.b) }

// Facts returns every recorded fact in stable order, nil when there are
// none.
func (r *Result) Facts() []Fact {
	return r.render(func(*facts.Fact) bool { return true })
}

// DeterminateFacts returns only the determinate facts.
func (r *Result) DeterminateFacts() []Fact {
	return r.render(func(f *facts.Fact) bool { return f.Det })
}

// FactsAtLine returns the facts whose program point lies on a source line.
func (r *Result) FactsAtLine(line int) []Fact {
	return r.render(func(f *facts.Fact) bool {
		in := r.mod.InstrAt(f.Instr)
		return in != nil && in.IPos().Line == line
	})
}

// render renders the facts keep accepts, in stable order, with one
// facts.Renderer: each program point and context is formatted once however
// many facts share it.
func (r *Result) render(keep func(*facts.Fact) bool) []Fact {
	sorted := r.store.Sorted()
	n := 0
	for _, f := range sorted {
		if keep(f) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Fact, 0, n)
	rr := facts.NewRenderer(r.mod)
	for _, f := range sorted {
		if !keep(f) {
			continue
		}
		point, line, col := rr.Point(f.Instr)
		out = append(out, Fact{
			Line: line, Col: col, Point: point, Context: rr.Context(f),
			Determinate: f.Det, Value: f.Val.String(),
		})
	}
	return out
}

// NumFacts and NumDeterminate report store sizes.
func (r *Result) NumFacts() int         { return r.store.Len() }
func (r *Result) NumDeterminate() int   { return r.store.NumDeterminate() }
func (r *Result) Store() *facts.Store   { return r.store }
func (r *Result) Module() *ir.Module    { return r.mod }
func (r *Result) Program() *ast.Program { return r.prog }

// ---------------------------------------------------------------------------
// Clients

// SpecializeOptions configures fact-driven specialization (§2.2/§5.1).
type SpecializeOptions struct {
	// MaxUnroll bounds loop unrolling (0 = default 32).
	MaxUnroll int
	// MaxCloneDepth bounds context-clone nesting (0 = default 4).
	MaxCloneDepth int
	// EliminateEval also replaces determinate eval calls with parsed code
	// (§2.3/§5.2).
	EliminateEval bool
	// Generalize additionally applies context-insensitive fact projections
	// (the paper's §7 "shallower calling contexts"), specializing original
	// function bodies in place when every observed context agrees.
	Generalize bool
}

// Specialized is the output of Result.Specialize.
type Specialized struct {
	// Source is the specialized program.
	Source string
	// Stats counts the applied specializations.
	Stats specialize.Stats
	// EvalSites classifies each syntactic eval call site (when
	// EliminateEval was set).
	EvalSites []specialize.EvalSite
	// DeadBranches lists conditionals proven one-sided under specific
	// contexts — the dead-code-detection client the paper's introduction
	// motivates with Figure 1.
	DeadBranches []specialize.DeadBranch
}

// ExportMetrics publishes the run's statistics into a metrics registry:
// step/flush/counterfactual counters (with per-reason flush labels), the
// counterfactual-depth histogram, and fact-store totals.
func (r *Result) ExportMetrics(m *Metrics) {
	r.Stats.Export(m)
	m.Counter("facts_total").Add(int64(r.store.Len()))
	m.Counter("facts_determinate_total").Add(int64(r.store.NumDeterminate()))
	m.Gauge("analysis_handlers_ran").Set(float64(r.HandlersRan))
	if r.Partial {
		guard.CountDegraded(m, r.Degraded)
	}
}

// Specialize rewrites the analyzed program using the collected facts.
func (r *Result) Specialize(opts SpecializeOptions) (*Specialized, error) {
	defer obs.PhaseScope(r.tracer, "specialize")()
	res, err := specialize.Specialize(r.prog, r.mod, r.store, specialize.Options{
		MaxUnroll:     opts.MaxUnroll,
		MaxCloneDepth: opts.MaxCloneDepth,
		EliminateEval: opts.EliminateEval,
		Generalize:    opts.Generalize,
	})
	if err != nil {
		return nil, err
	}
	return &Specialized{
		Source:       ast.Print(res.Program),
		Stats:        res.Stats,
		EvalSites:    res.EvalSites,
		DeadBranches: res.DeadBranches,
	}, nil
}

// SpecializeWithFacts specializes src using a previously serialized fact
// store (see Result.Store().Encode and cmd/detrun -json). Instruction IDs
// are deterministic per source text, so facts recorded against the same
// program apply directly.
func SpecializeWithFacts(name, src string, factsJSON io.Reader, opts SpecializeOptions) (*Specialized, error) {
	prog, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	mod, err := ir.Lower(prog)
	if err != nil {
		return nil, err
	}
	store, err := facts.Decode(factsJSON)
	if err != nil {
		return nil, err
	}
	res, err := specialize.Specialize(prog, mod, store, specialize.Options{
		MaxUnroll:     opts.MaxUnroll,
		MaxCloneDepth: opts.MaxCloneDepth,
		EliminateEval: opts.EliminateEval,
		Generalize:    opts.Generalize,
	})
	if err != nil {
		return nil, err
	}
	return &Specialized{
		Source:       ast.Print(res.Program),
		Stats:        res.Stats,
		EvalSites:    res.EvalSites,
		DeadBranches: res.DeadBranches,
	}, nil
}

// PointsToOptions configures the static points-to client.
type PointsToOptions struct {
	// Budget bounds solver work (0 = default); exceeding it reports
	// BudgetExceeded, the stand-in for the paper's analysis timeout.
	Budget int
	// Tracer observes the solver: a "solve" phase pair plus periodic
	// worklist snapshots. nil disables tracing.
	Tracer Tracer
}

// PointsToReport summarizes a points-to run.
type PointsToReport struct {
	BudgetExceeded bool
	// Interrupted reports that the solver stopped early on deadline or
	// cancellation. Unlike determinacy facts, an interrupted points-to
	// result is an UNDER-approximation — clients must treat it exactly
	// like BudgetExceeded (unusable for sound claims).
	Interrupted  bool
	Propagations int

	ReachableFuncs int
	// MaxCallees is the largest callee set of any call site, a precision
	// indicator (1 = monomorphic resolution everywhere it matters).
	MaxCallees int
	// EvalSites counts call sites that resolve only to the eval native.
	EvalSites int
}

// PointsTo runs the Andersen-style points-to analysis over source text.
func PointsTo(src string, opts PointsToOptions) (*PointsToReport, error) {
	return PointsToContext(context.Background(), src, time.Time{}, opts)
}

// PointsToContext is PointsTo with cooperative cancellation and an
// optional wall-clock deadline (zero = none). Solver panics are recovered
// into a *RunError; an interrupted solve reports Interrupted rather than
// failing.
func PointsToContext(ctx context.Context, src string, deadline time.Time, opts PointsToOptions) (*PointsToReport, error) {
	mod, err := ir.Compile("program.js", src)
	if err != nil {
		return nil, err
	}
	res, err := pointsto.AnalyzeGuarded(mod, pointsto.Options{
		Budget: opts.Budget, Tracer: opts.Tracer, Ctx: ctx, Deadline: deadline,
	})
	if err != nil {
		return nil, err
	}
	rep := &PointsToReport{
		BudgetExceeded: res.BudgetExceeded,
		Interrupted:    res.Interrupted != nil,
		Propagations:   res.Propagations,
		ReachableFuncs: res.ReachableFuncs,
		EvalSites:      len(res.EvalSites),
	}
	for _, cs := range res.Callees {
		if len(cs) > rep.MaxCallees {
			rep.MaxCallees = len(cs)
		}
	}
	return rep, nil
}
