// Package diffcheck implements a randomized differential-soundness harness
// for the determinacy analysis: the executable, adversarial form of the
// paper's Theorem 1. For each generated program it runs the instrumented
// analysis once to collect facts, replays many concrete executions under
// random resolutions of every indeterminate input (Math.random seeds and
// __input values) cross-checking each fact, and differentially compares the
// tree interpreter against the instrumented interpreter — with identical
// seeds and inputs the two must agree exactly on console output and final
// global state. Failing programs shrink to minimal reproducers with the
// delta-debugging reducer in reduce.go.
package diffcheck

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"determinacy/internal/ast"
	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/soundcheck"
	"determinacy/internal/workload"
)

// Kind classifies an oracle violation.
type Kind string

// Violation kinds, in decreasing order of severity.
const (
	// KindUnsound: a determinate fact did not hold in a concrete execution
	// (a Theorem 1 counterexample).
	KindUnsound Kind = "unsound-fact"
	// KindConflict: determinate facts from instrumented runs on different
	// inputs contradict each other (a §7 counterexample).
	KindConflict Kind = "fact-conflict"
	// KindDiverge: with identical seeds and inputs, the concrete and
	// instrumented interpreters produced different output or final state.
	KindDiverge Kind = "interp-core-divergence"
	// KindCrash: a run failed with an unexpected error.
	KindCrash Kind = "crash"
	// KindReject: the program did not compile. Generated programs must
	// always compile, so this flags a generator or front-end bug; during
	// reduction it marks an invalid candidate.
	KindReject Kind = "does-not-compile"
)

// Failure describes one oracle violation, carrying enough information to
// reproduce it deterministically.
type Failure struct {
	Kind Kind `json:"kind"`
	// GenSeed is the generator seed (and resolution base) of the program,
	// when it came from CheckSeed.
	GenSeed uint64 `json:"gen_seed"`
	// Resolution is the concrete replay that violated the oracle; -1 marks
	// failures of the instrumented runs themselves.
	Resolution int    `json:"resolution"`
	Detail     string `json:"detail"`
	Program    string `json:"program"`
	// Minimized is the delta-debugged reproducer, when reduction ran.
	Minimized string `json:"minimized,omitempty"`
}

func (f *Failure) String() string {
	return fmt.Sprintf("%s (seed %d, resolution %d): %s", f.Kind, f.GenSeed, f.Resolution, f.Detail)
}

// GenConfigFor derives the generator configuration for a campaign seed,
// cycling through feature combinations (for-in, eval, prototype mutation,
// console output) and indeterminacy rates — including fully-determinate
// programs, where the interpreters must agree without any flushing at all.
func GenConfigFor(seed uint64) workload.GenConfig {
	h := mix(seed, 0x6d696e6a73) // "minjs"
	cfg := workload.GenConfig{
		Seed:        seed,
		WithForIn:   h&1 != 0,
		WithEval:    h&2 != 0,
		WithProto:   h&4 != 0,
		WithConsole: h&8 != 0,
	}
	switch (h >> 4) % 4 {
	case 0:
		cfg.IndetPercent = -1 // fully determinate
	case 1:
		cfg.IndetPercent = 10
	case 2:
		cfg.IndetPercent = 25
	default:
		cfg.IndetPercent = 50
	}
	return cfg
}

// mix is a splitmix64-style hash combining two words.
func mix(a, b uint64) uint64 {
	h := a ^ (b+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// resolutionSeed is the Math.random seed of concrete replay r.
func resolutionSeed(base uint64, r int) uint64 { return mix(base, uint64(r)*2+1) }

// resolveInputs derives the concrete values of the __input sources for
// replay r, spanning every primitive kind — including NaN and undefined —
// since a determinate fact must survive any of them.
func resolveInputs(base uint64, r int) map[string]interp.Value {
	s := mix(base, uint64(r)*2+2) | 1
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 2685821657736338717
	}
	one := func() interp.Value {
		switch next() % 8 {
		case 0:
			return interp.NumberVal(float64(next() % 10))
		case 1:
			return interp.NumberVal(-float64(next() % 50))
		case 2:
			return interp.NumberVal(0.5 + float64(next()%4))
		case 3:
			return interp.NumberVal(float64(next() % 1000003))
		case 4:
			return interp.NumberVal(math.NaN())
		case 5:
			return interp.BoolVal(next()%2 == 0)
		case 6:
			return interp.StringVal([]string{"", "x", "in7", "zz-top"}[next()%4])
		default:
			return interp.UndefinedVal
		}
	}
	return map[string]interp.Value{"a": one(), "b": one(), "c": one()}
}

// CheckSeed generates the program for genSeed and runs the full oracle
// against it. It returns the number of determinate fact checks exercised
// and the first violation found (nil when the program is clean).
func CheckSeed(genSeed uint64, resolutions int) (int, *Failure) {
	src := workload.RandomProgram(GenConfigFor(genSeed))
	checked, f := checkSource(src, resolutions, genSeed, oracleMaxSteps, oracleMaxFlushes)
	if f != nil {
		f.GenSeed = genSeed
	}
	return checked, f
}

// Oracle execution budgets. Generated programs terminate quickly by
// construction, so the campaign budget is generous; delta-debugging
// candidates can lose their loop increments and run forever, so reduction
// uses a much tighter budget that turns runaway candidates into prompt
// crash outcomes the reduction predicate rejects.
const (
	oracleMaxSteps   = 20_000_000
	oracleMaxFlushes = 100_000
	reduceMaxSteps   = 150_000
	reduceMaxFlushes = 500
)

// CheckSource runs the full oracle on one program: an instrumented run
// collecting facts, a second instrumented run on different inputs whose
// merged facts must not conflict (§7), and `resolutions` concrete replays
// each cross-checked against the facts. Replay 0 shares the instrumented
// run's seed and inputs, so its console output and final global state must
// match the instrumented run exactly.
//
// Fact checking is restricted to static program points: eval-lowered
// instruction IDs are run-local (different input resolutions can lower
// different strings, and counterfactual execution can lower evals a
// concrete run never reaches), exactly as AnalyzeRuns treats merged runs.
func CheckSource(src string, resolutions int, base uint64) (int, *Failure) {
	return checkSource(src, resolutions, base, oracleMaxSteps, oracleMaxFlushes)
}

// checkSource is CheckSource under explicit execution budgets.
func checkSource(src string, resolutions int, base uint64, maxSteps, maxFlushes int) (int, *Failure) {
	if resolutions < 1 {
		resolutions = 1
	}
	mod, err := ir.Compile("fuzz.js", src)
	if err != nil {
		return 0, &Failure{Kind: KindReject, Resolution: -1, Detail: "compile: " + err.Error(), Program: src}
	}
	static := ir.ID(mod.NumInstrs)

	var coreOut bytes.Buffer
	store := facts.NewStore()
	a := core.New(mod, store, core.Options{
		Seed:       resolutionSeed(base, 0),
		Inputs:     resolveInputs(base, 0),
		Out:        &coreOut,
		MaxSteps:   maxSteps,
		MaxFlushes: maxFlushes,
	})
	// A flush-limited run is truncated, so its final state is not comparable
	// against a complete concrete replay: report it as a crash (the campaign
	// budget is far above what generated programs need, so this only fires
	// for runaway reduction candidates and mutated fuzz inputs).
	if _, err := a.Run(); err != nil {
		return 0, &Failure{Kind: KindCrash, Resolution: -1, Detail: "instrumented run: " + err.Error(), Program: src}
	}
	if len(store.Conflicts) > 0 {
		return 0, &Failure{Kind: KindConflict, Resolution: -1,
			Detail: fmt.Sprintf("conflicts within a single run: %v", store.Conflicts), Program: src}
	}

	// §7: facts from instrumented runs on different inputs merge by union
	// and must never contradict on determinate values.
	store2 := facts.NewStore()
	a2 := core.New(mod, store2, core.Options{
		Seed:       resolutionSeed(base, 1),
		Inputs:     resolveInputs(base, 1),
		MaxSteps:   maxSteps,
		MaxFlushes: maxFlushes,
	})
	if _, err := a2.Run(); err != nil {
		return 0, &Failure{Kind: KindCrash, Resolution: -1, Detail: "second instrumented run: " + err.Error(), Program: src}
	}
	rs1, rs2 := store.Restrict(static), store2.Restrict(static)
	merged := facts.NewStore()
	merged.Merge(rs1)
	merged.Merge(rs2)
	if len(merged.Conflicts) > 0 {
		return 0, &Failure{Kind: KindConflict, Resolution: -1,
			Detail:  "determinate facts from two runs conflict:\n" + conflictDetail(merged.Conflicts, rs1, rs2, mod),
			Program: src}
	}

	rstore := store.Restrict(static)
	checked := 0
	for r := 0; r < resolutions; r++ {
		var out bytes.Buffer
		it := interp.New(mod, interp.Options{
			Seed:     resolutionSeed(base, r),
			Inputs:   resolveInputs(base, r),
			Out:      &out,
			MaxSteps: maxSteps,
		})
		ck := soundcheck.New(rstore)
		ck.Attach(it)
		if _, err := it.Run(); err != nil {
			return checked, &Failure{Kind: KindCrash, Resolution: r, Detail: "concrete run: " + err.Error(), Program: src}
		}
		checked += ck.Checked
		if len(ck.Mismatches) > 0 {
			return checked, &Failure{Kind: KindUnsound, Resolution: r, Detail: ck.Report(it.Mod), Program: src}
		}
		if r == 0 {
			// Identical seed and inputs: instrumentation must be
			// semantically transparent.
			if got, want := out.String(), coreOut.String(); got != want {
				return checked, &Failure{Kind: KindDiverge, Resolution: 0,
					Detail:  fmt.Sprintf("console output differs:\nconcrete:     %q\ninstrumented: %q", got, want),
					Program: src}
			}
			if d := compareGlobals(it, a); d != "" {
				return checked, &Failure{Kind: KindDiverge, Resolution: 0, Detail: d, Program: src}
			}
		}
	}
	return checked, nil
}

// SameFailure builds the reduction predicate: does a candidate still fail
// the oracle with the same kind of violation? Candidates that no longer
// compile never match (unless the original failure was a compile failure),
// and candidates run under the tight reduction budget, so a candidate whose
// loops no longer terminate counts as not failing rather than stalling the
// reduction.
func SameFailure(kind Kind, resolutions int, base uint64) func(string) bool {
	return func(cand string) bool {
		_, f := checkSource(cand, resolutions, base, reduceMaxSteps, reduceMaxFlushes)
		return f != nil && f.Kind == kind
	}
}

// conflictDetail renders both sides of every conflicting fact key, so a
// §7 violation report shows the two determinate values that disagreed.
func conflictDetail(keys []string, s1, s2 *facts.Store, mod *ir.Module) string {
	find := func(s *facts.Store, k string) *facts.Fact {
		for _, f := range s.All() {
			if fmt.Sprintf("%d|%s|%d", f.Instr, f.Ctx.Key(), f.Seq) == k {
				return f
			}
		}
		return nil
	}
	var b strings.Builder
	rr := facts.NewRenderer(mod)
	for _, k := range keys {
		fmt.Fprintf(&b, "  key %s\n", k)
		if f := find(s1, k); f != nil {
			fmt.Fprintf(&b, "    run A: %s\n", rr.AppendFact(nil, f))
		}
		if f := find(s2, k); f != nil {
			fmt.Fprintf(&b, "    run B: %s\n", rr.AppendFact(nil, f))
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Final-state comparison

var (
	builtinOnce  sync.Once
	builtinNames map[string]bool
)

// builtinGlobalNames is the set of globals defined by the runtimes
// themselves, excluded from program-state comparison.
func builtinGlobalNames() map[string]bool {
	builtinOnce.Do(func() {
		builtinNames = map[string]bool{}
		it := interp.New(ir.MustCompile("empty.js", ""), interp.Options{})
		for _, k := range it.Global.OwnKeys() {
			builtinNames[k] = true
		}
		a := core.New(ir.MustCompile("empty.js", ""), facts.NewStore(), core.Options{})
		for _, k := range a.Global.OwnKeys() {
			builtinNames[k] = true
		}
	})
	return builtinNames
}

// compareGlobals deep-compares the program-defined globals of a concrete
// and an instrumented run, returning a description of the first difference
// ("" when identical). Objects compare by own-property state plus any
// user-created prototype chain, so prototype mutations are covered.
func compareGlobals(it *interp.Interp, a *core.Analysis) string {
	builtin := builtinGlobalNames()
	iprotos := map[*interp.Obj]bool{
		it.ObjectProto: true, it.FunctionProto: true, it.ArrayProto: true,
		it.StringProto: true, it.NumberProto: true, it.BooleanProto: true, it.ErrorProto: true,
	}
	cprotos := map[*core.DObj]bool{
		a.ObjectProto: true, a.FunctionProto: true, a.ArrayProto: true,
		a.StringProto: true, a.NumberProto: true, a.BooleanProto: true, a.ErrorProto: true,
	}

	names := map[string]bool{}
	for _, k := range it.Global.OwnKeys() {
		if !builtin[k] {
			names[k] = true
		}
	}
	for _, k := range a.Global.OwnKeys() {
		if !builtin[k] {
			names[k] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	for _, k := range sorted {
		iv, iok := it.Global.Get(k)
		cv, cok := a.Global.OwnProp(k)
		if iok != cok {
			return fmt.Sprintf("global %q: present=%v concretely, present=%v instrumented", k, iok, cok)
		}
		si := snapInterp(iv, 3, iprotos)
		sc := snapCore(cv, 3, cprotos)
		if si != sc {
			return fmt.Sprintf("global %q: concrete %s vs instrumented %s", k, si, sc)
		}
	}
	return ""
}

// snapInterp renders a concrete value structurally: primitives via
// JavaScript ToString, objects as own properties in insertion order plus
// any user-created prototype.
func snapInterp(v interp.Value, depth int, protos map[*interp.Obj]bool) string {
	if v.Kind != interp.Object {
		return interp.ToString(v)
	}
	o := v.O
	if o.Fn != nil || o.Native != nil {
		return "function"
	}
	if depth <= 0 {
		return "{...}"
	}
	var b strings.Builder
	b.WriteString("{")
	for i, k := range o.OwnKeys() {
		if i > 0 {
			b.WriteString(", ")
		}
		pv, _ := o.Get(k)
		fmt.Fprintf(&b, "%s: %s", k, snapInterp(pv, depth-1, protos))
	}
	b.WriteString("}")
	if o.Proto != nil && !protos[o.Proto] {
		b.WriteString(" proto ")
		b.WriteString(snapInterp(interp.ObjVal(o.Proto), depth-1, protos))
	}
	return b.String()
}

// snapCore is snapInterp for instrumented values; determinacy annotations
// are deliberately ignored (they are analysis results, not program state).
func snapCore(v core.Value, depth int, protos map[*core.DObj]bool) string {
	switch v.Kind {
	case core.Undefined:
		return "undefined"
	case core.Null:
		return "null"
	case core.Bool:
		return strconv.FormatBool(v.B)
	case core.Number:
		return ast.FormatNumber(v.N)
	case core.String:
		return v.S
	}
	o := v.O
	if o.Fn != nil || o.Native != nil {
		return "function"
	}
	if depth <= 0 {
		return "{...}"
	}
	var b strings.Builder
	b.WriteString("{")
	n := 0
	for _, k := range o.OwnKeys() {
		// Phantom cells record properties that other executions may have
		// written; concretely the property is absent, so skip it.
		pv, ok := o.OwnProp(k)
		if !ok {
			continue
		}
		if n > 0 {
			b.WriteString(", ")
		}
		n++
		fmt.Fprintf(&b, "%s: %s", k, snapCore(pv, depth-1, protos))
	}
	b.WriteString("}")
	if o.Proto != nil && !protos[o.Proto] {
		b.WriteString(" proto ")
		b.WriteString(snapCore(core.Value{Kind: core.Object, O: o.Proto}, depth-1, protos))
	}
	return b.String()
}
