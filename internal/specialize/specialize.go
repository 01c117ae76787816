// Package specialize rewrites mini-JS programs using determinacy facts, the
// paper's first client (§2.2, §5.1). It performs the three specializations
// the paper describes:
//
//	(i)   removing branches guarded by determinately false conditions;
//	(ii)  making dynamic property accesses with determinate property names
//	      static;
//	(iii) unrolling loops with a determinate maximum number of iterations
//	      when this enables other specializations;
//
// and materializes per-calling-context function clones ("creating clones of
// functions based on the full call stacks present in determinacy facts") so
// that a context-insensitive static analysis of the output enjoys the
// precision of the context-qualified facts.
package specialize

import (
	"fmt"
	"sort"

	"determinacy/internal/ast"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/lexer"
)

// Options configures the specializer.
type Options struct {
	// MaxCloneDepth bounds context-clone nesting (the paper reports at most
	// four levels of context were needed). 0 means the default of 4; a
	// negative value disables cloning entirely.
	MaxCloneDepth int
	// FoldConstants enables replacing determinate pure expressions in
	// condition and property-name positions with their literal values.
	// Always on in practice; exposed for ablation.
	DisableFolding bool
	// EliminateEval replaces eval calls whose callee is determinately the
	// global eval and whose argument string is determinate with the parsed
	// code (§2.3, §5.2).
	EliminateEval bool
	// Generalize additionally applies context-insensitive projections of
	// the facts (the paper's §7 "shallower calling contexts" direction):
	// when every observation of a program point agrees on a determinate
	// value, the fact holds under any stack and can specialize the original
	// function body in place, without cloning.
	Generalize bool
}

// EvalStatus classifies one eval call site after specialization.
type EvalStatus int

// Eval site statuses; the §5.2 failure taxonomy.
const (
	EvalEliminated  EvalStatus = iota // replaced by parsed code
	EvalIndetArg                      // argument string indeterminate
	EvalIndetCallee                   // eval binding itself indeterminate (heap flush)
	EvalLoopIndet                     // inside a loop without a determinate bound
	EvalNotCovered                    // never reached by the dynamic analysis
	EvalParseFailed                   // argument did not parse as splicable code
)

func (s EvalStatus) String() string {
	switch s {
	case EvalEliminated:
		return "eliminated"
	case EvalIndetArg:
		return "indeterminate-argument"
	case EvalIndetCallee:
		return "indeterminate-callee"
	case EvalLoopIndet:
		return "indeterminate-loop-bound"
	case EvalNotCovered:
		return "not-covered"
	case EvalParseFailed:
		return "parse-failed"
	}
	return "?"
}

// EvalSite reports the outcome for one syntactic eval call site.
type EvalSite struct {
	Site   ir.ID
	Line   int
	Status EvalStatus
}

// Stats reports what the specializer did.
type Stats struct {
	BranchesPruned     int
	AccessesStaticized int
	LoopsUnrolled      int
	UnrolledIterations int
	ClonesCreated      int
	ConstsFolded       int
	EvalsEliminated    int
}

// DeadBranch reports one branch proven unreachable under a specific
// context: the paper's Figure 1 use case ("identify code that is
// unreachable for this particular invocation... thereby gaining a degree of
// flow sensitivity").
type DeadBranch struct {
	// Line is the source line of the conditional.
	Line int
	// Context renders the calling context the branch is dead under
	// (empty = everywhere observed).
	Context string
	// Taken reports which arm is live: the dead one is the other.
	Taken bool
}

// Result is the specialization output.
type Result struct {
	Program *ast.Program
	Stats   Stats
	// EvalSites reports, per syntactic eval call site, whether it was
	// eliminated and why not otherwise (populated when EliminateEval).
	// A site occurring in several clone contexts reports its worst status.
	EvalSites []EvalSite
	// DeadBranches lists every pruned conditional with its context.
	DeadBranches []DeadBranch
}

// Specialize rewrites prog using facts gathered by running mod (the lowered
// form of prog) under the determinacy analysis.
func Specialize(prog *ast.Program, mod *ir.Module, store *facts.Store, opts Options) (*Result, error) {
	if opts.MaxCloneDepth == 0 {
		opts.MaxCloneDepth = 4
	}
	sp := &specializer{
		mod:        mod,
		funcs:      mod.Funcs(),
		store:      store,
		opts:       opts,
		gen:        genStore(store, opts),
		posIdx:     map[posKey][]ir.Instr{},
		ctxPfx:     map[string]bool{},
		clones:     map[string]string{},
		fnOfPos:    map[lexer.Pos]*ir.Function{},
		evalStatus: map[ir.ID]EvalStatus{},
	}
	mod.ForEachInstr(func(in ir.Instr, fn *ir.Function) {
		k := posKey{in.IPos(), kindOf(in)}
		sp.posIdx[k] = append(sp.posIdx[k], in)
	})
	for _, fn := range sp.funcs {
		if fn.Decl != nil {
			sp.fnOfPos[fn.Decl.P] = fn
		}
	}
	for _, f := range store.All() {
		ctx := f.Ctx
		for i := 0; i <= len(ctx); i++ {
			sp.ctxPfx[ctx[:i].Key()] = true
		}
	}

	out := &ast.Program{File: prog.File, Source: prog.Source}
	body := sp.stmts(prog.Body, &env{ctx: nil, iter: -1})
	out.Body = append(out.Body, sp.newDecls...)
	out.Body = append(out.Body, body...)

	res := &Result{Program: out, Stats: sp.stats, DeadBranches: sp.deadBranches}
	if opts.EliminateEval {
		// Syntactic eval sites never reached under a live context default
		// to not-covered.
		ast.Walk(prog, func(n ast.Node) bool {
			call, ok := n.(*ast.Call)
			if !ok {
				return true
			}
			if id, ok := call.Callee.(*ast.Ident); !ok || id.Name != "eval" {
				return true
			}
			for _, in := range sp.posIdx[posKey{call.P, "call"}] {
				if _, seen := sp.evalStatus[in.IID()]; !seen {
					sp.evalStatus[in.IID()] = EvalNotCovered
				}
			}
			return true
		})
		sites := make([]ir.ID, 0, len(sp.evalStatus))
		for site := range sp.evalStatus {
			sites = append(sites, site)
		}
		// Report in site order: map iteration would make the slice order
		// depend on the hash seed, breaking run-to-run reproducibility.
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		for _, site := range sites {
			line := 0
			if in := mod.InstrAt(site); in != nil {
				line = in.IPos().Line
			}
			res.EvalSites = append(res.EvalSites, EvalSite{Site: site, Line: line, Status: sp.evalStatus[site]})
		}
	}
	return res, nil
}

// env carries the specialization context through the AST walk.
type env struct {
	// ctx is the calling context this code executes under.
	ctx facts.Context
	// iter maps reentrant occurrences: when code is an unrolled loop-body
	// copy, iter is the iteration index used as the occurrence seq for
	// fact lookups; -1 outside unrolled copies.
	iter int
	// depth is the clone nesting depth.
	depth int
	// fn is the ir.Function whose body is being specialized (nil = top).
	fn *ir.Function
}

func (e *env) seq() int {
	if e.iter > 0 {
		return e.iter
	}
	return 0
}

type posKey struct {
	pos  lexer.Pos
	kind string
}

type specializer struct {
	mod   *ir.Module
	funcs []*ir.Function // mod.Funcs(), indexed by Function.Index
	store *facts.Store
	// gen is the context-insensitive projection used as a lookup fallback
	// when Options.Generalize is set (nil otherwise).
	gen          *facts.Store
	opts         Options
	stats        Stats
	posIdx       map[posKey][]ir.Instr
	ctxPfx       map[string]bool
	fnOfPos      map[lexer.Pos]*ir.Function
	clones       map[string]string // (fnIndex|ctx) -> clone name
	newDecls     []ast.Stmt
	nclones      int
	evalStatus   map[ir.ID]EvalStatus
	deadBranches []DeadBranch
}

// noteEval records an eval site status, keeping the worst across contexts.
func (sp *specializer) noteEval(site ir.ID, s EvalStatus) {
	if cur, ok := sp.evalStatus[site]; !ok || s > cur {
		sp.evalStatus[site] = s
	}
}

func kindOf(in ir.Instr) string {
	switch in.(type) {
	case *ir.LoadVar:
		return "loadvar"
	case *ir.LoadGlobal:
		return "loadglobal"
	case *ir.GetField:
		return "getfield"
	case *ir.GetProp:
		return "getprop"
	case *ir.BinOp:
		return "binop"
	case *ir.UnOp:
		return "unop"
	case *ir.Call:
		return "call"
	case *ir.Move:
		return "move"
	case *ir.Const:
		return "const"
	case *ir.While:
		return "while"
	case *ir.ForIn:
		return "forin"
	default:
		return fmt.Sprintf("%T", in)
	}
}

// instrFor finds the unique instruction of the given kind at a position
// within fn (nil fn = top level).
func (sp *specializer) instrFor(e *env, pos lexer.Pos, kind string) ir.Instr {
	cands := sp.posIdx[posKey{pos, kind}]
	var match ir.Instr
	for _, in := range cands {
		inFn := sp.mod.FuncOf(in.IID())
		if sameFn(inFn, e.fn, sp.mod) {
			if match != nil {
				return nil // ambiguous
			}
			match = in
		}
	}
	return match
}

func sameFn(a, b *ir.Function, mod *ir.Module) bool {
	if b == nil {
		b = mod.Top()
	}
	if a == nil {
		a = mod.Top()
	}
	return a == b
}

// defKind maps an expression node to the IR kind of its defining
// instruction.
func defKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.Ident:
		return "" // resolved to loadvar or loadglobal; tried in order
	case *ast.Member:
		return "getfield"
	case *ast.Index:
		return "getprop"
	case *ast.Binary:
		return "binop"
	case *ast.Unary:
		return "unop"
	case *ast.Call:
		return "call"
	case *ast.Logical, *ast.Cond:
		return "move" // the result register's final Move carries the pos
	default:
		return ""
	}
}

// factFor returns the determinacy fact for expression e under env, or nil.
func (sp *specializer) factFor(e *env, x ast.Expr) *facts.Fact {
	var kinds []string
	if _, ok := x.(*ast.Ident); ok {
		kinds = []string{"loadvar", "loadglobal"}
	} else if k := defKind(x); k != "" {
		kinds = []string{k}
	} else {
		return nil
	}
	for _, k := range kinds {
		in := sp.instrFor(e, x.Pos(), k)
		if in == nil {
			continue
		}
		if f, ok := sp.store.Lookup(in.IID(), e.ctx, e.seq()); ok {
			return f
		}
		// Generalized fallback: a point determinate with one value across
		// every observed context holds under any stack (§7).
		if sp.gen != nil && e.seq() == 0 {
			if f, ok := sp.gen.Lookup(in.IID(), nil, 0); ok && f.Det {
				return f
			}
		}
	}
	return nil
}

// genStore builds the context-insensitive projection when requested.
func genStore(store *facts.Store, opts Options) *facts.Store {
	if !opts.Generalize {
		return nil
	}
	return store.Generalize()
}

// detValue returns the determinate primitive value of expression x under
// env, if any.
func (sp *specializer) detValue(e *env, x ast.Expr) (facts.Snapshot, bool) {
	// Literals are their own values.
	switch lit := x.(type) {
	case *ast.NumberLit:
		return facts.Snapshot{Kind: facts.VNumber, Num: lit.Value}, true
	case *ast.StringLit:
		return facts.Snapshot{Kind: facts.VString, Str: lit.Value}, true
	case *ast.BoolLit:
		return facts.Snapshot{Kind: facts.VBool, Bool: lit.Value}, true
	case *ast.NullLit:
		return facts.Snapshot{Kind: facts.VNull}, true
	case *ast.UndefinedLit:
		return facts.Snapshot{Kind: facts.VUndefined}, true
	}
	f := sp.factFor(e, x)
	if f == nil || !f.Det {
		return facts.Snapshot{}, false
	}
	return f.Val, true
}

// litFor converts a primitive snapshot to a literal expression.
func litFor(v facts.Snapshot, pos lexer.Pos) ast.Expr {
	switch v.Kind {
	case facts.VNumber:
		if v.Num < 0 {
			return &ast.Unary{Op: "-", X: &ast.NumberLit{Value: -v.Num, P: pos}, P: pos}
		}
		return &ast.NumberLit{Value: v.Num, P: pos}
	case facts.VString:
		return &ast.StringLit{Value: v.Str, P: pos}
	case facts.VBool:
		return &ast.BoolLit{Value: v.Bool, P: pos}
	case facts.VNull:
		return &ast.NullLit{P: pos}
	case facts.VUndefined:
		return &ast.UndefinedLit{P: pos}
	default:
		return nil
	}
}

// isPure reports whether evaluating x can have no side effects (calls,
// assignments, allocation with user code). Property reads count as pure.
func isPure(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.NumberLit, *ast.StringLit, *ast.BoolLit, *ast.NullLit,
		*ast.UndefinedLit, *ast.Ident, *ast.ThisExpr:
		return true
	case *ast.Member:
		return isPure(x.Obj)
	case *ast.Index:
		return isPure(x.Obj) && isPure(x.Index)
	case *ast.Unary:
		return x.Op != "delete" && isPure(x.X)
	case *ast.Binary:
		return isPure(x.L) && isPure(x.R)
	case *ast.Logical:
		return isPure(x.L) && isPure(x.R)
	case *ast.Cond:
		return isPure(x.Test) && isPure(x.Cons) && isPure(x.Alt)
	default:
		return false
	}
}
