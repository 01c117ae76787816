package specialize

import (
	"fmt"

	"determinacy/internal/ast"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/lexer"
	"determinacy/internal/parser"
)

func (sp *specializer) stmts(ss []ast.Stmt, e *env) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range ss {
		out = append(out, sp.stmt(s, e)...)
	}
	return out
}

// stmt rewrites one statement; it may expand to several (loop unrolling) or
// fewer (branch pruning).
func (sp *specializer) stmt(s ast.Stmt, e *env) []ast.Stmt {
	switch s := s.(type) {
	case *ast.VarDecl:
		d := &ast.VarDecl{P: s.P}
		for _, decl := range s.Decls {
			nd := ast.Declarator{Name: decl.Name}
			if decl.Init != nil {
				nd.Init = sp.expr(decl.Init, e)
			}
			d.Decls = append(d.Decls, nd)
		}
		return []ast.Stmt{d}
	case *ast.ExprStmt:
		return []ast.Stmt{&ast.ExprStmt{X: sp.expr(s.X, e), P: s.P}}
	case *ast.Block:
		return []ast.Stmt{&ast.Block{Body: sp.stmts(s.Body, e), P: s.P}}
	case *ast.If:
		return sp.ifStmt(s, e)
	case *ast.While:
		if out, ok := sp.tryUnrollWhile(s.P, nil, s.Test, nil, s.Body, e); ok {
			return out
		}
		return []ast.Stmt{&ast.While{Test: sp.expr(s.Test, e), Body: sp.blockStmt(s.Body, e), P: s.P}}
	case *ast.DoWhile:
		return []ast.Stmt{&ast.DoWhile{Body: sp.blockStmt(s.Body, e), Test: sp.expr(s.Test, e), P: s.P}}
	case *ast.For:
		if out, ok := sp.tryUnrollWhile(s.P, s.Init, s.Test, s.Update, s.Body, e); ok {
			return out
		}
		f := &ast.For{P: s.P, Body: sp.blockStmt(s.Body, e)}
		if s.Init != nil {
			init := sp.stmt(s.Init, e)
			if len(init) == 1 {
				f.Init = init[0]
			}
		}
		if s.Test != nil {
			f.Test = sp.expr(s.Test, e)
		}
		if s.Update != nil {
			f.Update = sp.expr(s.Update, e)
		}
		return []ast.Stmt{f}
	case *ast.ForIn:
		if out, ok := sp.tryUnrollForIn(s, e); ok {
			return out
		}
		return []ast.Stmt{&ast.ForIn{Name: s.Name, Declare: s.Declare,
			Obj: sp.expr(s.Obj, e), Body: sp.blockStmt(s.Body, e), P: s.P}}
	case *ast.Return:
		r := &ast.Return{P: s.P}
		if s.Value != nil {
			r.Value = sp.expr(s.Value, e)
		}
		return []ast.Stmt{r}
	case *ast.Throw:
		return []ast.Stmt{&ast.Throw{Value: sp.expr(s.Value, e), P: s.P}}
	case *ast.Try:
		t := &ast.Try{P: s.P, CatchParam: s.CatchParam}
		t.Block = &ast.Block{Body: sp.stmts(s.Block.Body, e), P: s.Block.P}
		if s.Catch != nil {
			t.Catch = &ast.Block{Body: sp.stmts(s.Catch.Body, e), P: s.Catch.P}
		}
		if s.Finally != nil {
			t.Finally = &ast.Block{Body: sp.stmts(s.Finally.Body, e), P: s.Finally.P}
		}
		return []ast.Stmt{t}
	case *ast.FunctionDecl:
		// The generic (unspecialized) body is kept: fact lookups under its
		// own function find nothing for foreign contexts, so the rewrite is
		// the identity apart from nested structure copies.
		fn := sp.fnOfPos[s.Fn.P]
		inner := &env{fn: fn, depth: e.depth, iter: -1}
		return []ast.Stmt{&ast.FunctionDecl{Fn: sp.funcLit(s.Fn, inner), P: s.P}}
	case *ast.Switch:
		sw := &ast.Switch{Disc: sp.expr(s.Disc, e), P: s.P}
		for _, c := range s.Cases {
			nc := ast.Case{Body: sp.stmts(c.Body, e)}
			if c.Test != nil {
				nc.Test = sp.expr(c.Test, e)
			}
			sw.Cases = append(sw.Cases, nc)
		}
		return []ast.Stmt{sw}
	default: // Break, Continue, Empty
		return []ast.Stmt{s}
	}
}

func (sp *specializer) blockStmt(s ast.Stmt, e *env) ast.Stmt {
	out := sp.stmt(s, e)
	if len(out) == 1 {
		return out[0]
	}
	return &ast.Block{Body: out, P: s.Pos()}
}

func (sp *specializer) funcLit(fn *ast.FunctionLit, e *env) *ast.FunctionLit {
	return &ast.FunctionLit{
		Name:   fn.Name,
		Params: fn.Params,
		Body:   sp.stmts(fn.Body, e),
		P:      fn.P,
	}
}

// truthyOf evaluates JavaScript truthiness of a fact snapshot.
func truthyOf(v facts.Snapshot) bool {
	switch v.Kind {
	case facts.VUndefined, facts.VNull:
		return false
	case facts.VBool:
		return v.Bool
	case facts.VNumber:
		return v.Num != 0 && v.Num == v.Num
	case facts.VString:
		return v.Str != ""
	default:
		return true
	}
}

// ifStmt prunes branches with determinate conditions (specialization (i)).
// An impure condition is preserved as an expression statement so runtime
// behaviour is unchanged.
func (sp *specializer) ifStmt(s *ast.If, e *env) []ast.Stmt {
	if !sp.opts.DisableFolding {
		if v, ok := sp.detValue(e, s.Test); ok {
			sp.stats.BranchesPruned++
			sp.deadBranches = append(sp.deadBranches, DeadBranch{
				Line: s.P.Line, Context: e.ctx.Key(), Taken: truthyOf(v),
			})
			var out []ast.Stmt
			if !isPure(s.Test) {
				out = append(out, &ast.ExprStmt{X: sp.expr(s.Test, e), P: s.P})
			}
			if truthyOf(v) {
				out = append(out, sp.stmt(s.Cons, e)...)
			} else if s.Alt != nil {
				out = append(out, sp.stmt(s.Alt, e)...)
			}
			if len(out) == 0 {
				return []ast.Stmt{&ast.Empty{P: s.P}}
			}
			return out
		}
	}
	n := &ast.If{Test: sp.expr(s.Test, e), Cons: sp.blockStmt(s.Cons, e), P: s.P}
	if s.Alt != nil {
		n.Alt = sp.blockStmt(s.Alt, e)
	}
	return []ast.Stmt{n}
}

// ---------------------------------------------------------------------------
// Loop unrolling (specialization (iii))

// hasLoopEscape reports whether body contains a break or continue bound to
// this loop.
func hasLoopEscape(body ast.Stmt) bool {
	found := false
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		if found {
			return
		}
		switch s := s.(type) {
		case *ast.Break, *ast.Continue:
			found = true
		case *ast.Block:
			for _, t := range s.Body {
				walk(t)
			}
		case *ast.If:
			walk(s.Cons)
			if s.Alt != nil {
				walk(s.Alt)
			}
		case *ast.Try:
			walk(s.Block)
			if s.Catch != nil {
				walk(s.Catch)
			}
			if s.Finally != nil {
				walk(s.Finally)
			}
			// Nested loops and switches own their break/continue.
		}
	}
	walk(body)
	return found
}

// maxUnroll bounds loop unrolling (the paper needed 21 iterations for
// jQuery 1.0).
const maxUnroll = 32

// tryUnrollWhile attempts to unroll a loop whose condition facts show a
// determinate trip count. Each unrolled copy is specialized with its
// iteration index as the occurrence sequence, which is what turns
// per-iteration facts (⟦prop⟧ 24₀→15 = "width") into distinct contexts.
func (sp *specializer) tryUnrollWhile(pos lexer.Pos, init ast.Stmt, test ast.Expr, update ast.Expr, body ast.Stmt, e *env) ([]ast.Stmt, bool) {
	if sp.opts.DisableFolding || test == nil || e.iter >= 0 {
		return nil, false
	}
	if !isPure(test) || hasLoopEscape(body) {
		return nil, false
	}
	// Probe the condition facts for a determinate trip structure:
	// true^trips followed by false.
	trips := -1
	for k := 0; k <= maxUnroll; k++ {
		probe := &env{ctx: e.ctx, iter: k, depth: e.depth, fn: e.fn}
		f := sp.factFor(probe, test)
		if f == nil || !f.Det {
			return nil, false
		}
		if !truthyOf(f.Val) {
			trips = k
			break
		}
	}
	if trips < 0 {
		return nil, false
	}
	sp.stats.LoopsUnrolled++
	sp.stats.UnrolledIterations += trips

	var out []ast.Stmt
	if init != nil {
		out = append(out, sp.stmt(init, e)...)
	}
	for i := 0; i < trips; i++ {
		iterEnv := &env{ctx: e.ctx, iter: i, depth: e.depth, fn: e.fn}
		out = append(out, sp.stmt(body, iterEnv)...)
		if update != nil {
			out = append(out, &ast.ExprStmt{X: sp.expr(update, iterEnv), P: update.Pos()})
		}
	}
	if len(out) == 0 {
		out = []ast.Stmt{&ast.Empty{P: pos}}
	}
	return out, true
}

// tryUnrollForIn unrolls a for-in loop whose visited key sequence is
// determinate (recorded per iteration by the instrumented ForIn rule). This
// realizes §5.2's observation that a determinate property set iterates in
// determinate order, enabling specialization of for-in-driven reflective
// code.
func (sp *specializer) tryUnrollForIn(s *ast.ForIn, e *env) ([]ast.Stmt, bool) {
	if sp.opts.DisableFolding || e.iter >= 0 || hasLoopEscape(s.Body) {
		return nil, false
	}
	in := sp.instrFor(e, s.P, "forin")
	if in == nil {
		return nil, false
	}
	var keys []string
	for seq := 0; ; seq++ {
		f, ok := sp.store.Lookup(in.IID(), e.ctx, seq)
		if !ok {
			break
		}
		if !f.Det || f.Val.Kind != facts.VString {
			return nil, false
		}
		keys = append(keys, f.Val.Str)
		if seq > maxUnroll {
			return nil, false
		}
	}
	if len(keys) == 0 {
		return nil, false
	}
	sp.stats.LoopsUnrolled++
	sp.stats.UnrolledIterations += len(keys)

	var out []ast.Stmt
	if !isPure(s.Obj) {
		out = append(out, &ast.ExprStmt{X: sp.expr(s.Obj, e), P: s.P})
	}
	for i, k := range keys {
		iterEnv := &env{ctx: e.ctx, iter: i, depth: e.depth, fn: e.fn}
		lit := &ast.StringLit{Value: k, P: s.P}
		if s.Declare && i == 0 {
			out = append(out, &ast.VarDecl{Decls: []ast.Declarator{{Name: s.Name, Init: lit}}, P: s.P})
		} else {
			out = append(out, &ast.ExprStmt{
				X: &ast.Assign{Op: "=", Target: &ast.Ident{Name: s.Name, P: s.P}, Value: lit, P: s.P},
				P: s.P,
			})
		}
		out = append(out, sp.stmt(s.Body, iterEnv)...)
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Expressions

func (sp *specializer) expr(x ast.Expr, e *env) ast.Expr {
	switch x := x.(type) {
	case *ast.NumberLit, *ast.StringLit, *ast.BoolLit, *ast.NullLit,
		*ast.UndefinedLit, *ast.Ident, *ast.ThisExpr:
		return x
	case *ast.FunctionLit:
		fn := sp.fnOfPos[x.P]
		return sp.funcLit(x, &env{fn: fn, depth: e.depth, iter: -1})
	case *ast.ObjectLit:
		o := &ast.ObjectLit{P: x.P}
		for _, p := range x.Props {
			o.Props = append(o.Props, ast.Property{Key: p.Key, Value: sp.expr(p.Value, e)})
		}
		return o
	case *ast.ArrayLit:
		a := &ast.ArrayLit{P: x.P}
		for _, el := range x.Elems {
			a.Elems = append(a.Elems, sp.expr(el, e))
		}
		return a
	case *ast.Member:
		return &ast.Member{Obj: sp.expr(x.Obj, e), Prop: x.Prop, P: x.P}
	case *ast.Index:
		return sp.index(x, e)
	case *ast.Call:
		return sp.call(x, e)
	case *ast.New:
		n := &ast.New{Callee: sp.expr(x.Callee, e), P: x.P}
		for _, a := range x.Args {
			n.Args = append(n.Args, sp.expr(a, e))
		}
		return n
	case *ast.Unary:
		return &ast.Unary{Op: x.Op, X: sp.expr(x.X, e), P: x.P}
	case *ast.Update:
		return &ast.Update{Op: x.Op, X: sp.expr(x.X, e), Prefix: x.Prefix, P: x.P}
	case *ast.Binary:
		return &ast.Binary{Op: x.Op, L: sp.expr(x.L, e), R: sp.expr(x.R, e), P: x.P}
	case *ast.Logical:
		return &ast.Logical{Op: x.Op, L: sp.expr(x.L, e), R: sp.expr(x.R, e), P: x.P}
	case *ast.Cond:
		if !sp.opts.DisableFolding {
			if v, ok := sp.detValue(e, x.Test); ok && isPure(x.Test) {
				sp.stats.ConstsFolded++
				if truthyOf(v) {
					return sp.expr(x.Cons, e)
				}
				return sp.expr(x.Alt, e)
			}
		}
		return &ast.Cond{Test: sp.expr(x.Test, e), Cons: sp.expr(x.Cons, e), Alt: sp.expr(x.Alt, e), P: x.P}
	case *ast.Assign:
		return &ast.Assign{Op: x.Op, Target: sp.expr(x.Target, e), Value: sp.expr(x.Value, e), P: x.P}
	case *ast.Seq:
		return &ast.Seq{L: sp.expr(x.L, e), R: sp.expr(x.R, e), P: x.P}
	default:
		return x
	}
}

// index staticizes dynamic property accesses with determinate names
// (specialization (ii)): o[e] becomes o.name or o["name"]. Like the paper's
// specializer, the (determinate) name computation is dropped even when it
// contains calls; the output is for analysis consumption.
func (sp *specializer) index(x *ast.Index, e *env) ast.Expr {
	obj := sp.expr(x.Obj, e)
	if !sp.opts.DisableFolding {
		if v, ok := sp.detValue(e, x.Index); ok && v.Kind == facts.VString {
			sp.stats.AccessesStaticized++
			if isIdentLike(v.Str) {
				return &ast.Member{Obj: obj, Prop: v.Str, P: x.P}
			}
			return &ast.Index{Obj: obj, Index: &ast.StringLit{Value: v.Str, P: x.Index.Pos()}, P: x.P}
		}
	}
	return &ast.Index{Obj: obj, Index: sp.expr(x.Index, e), P: x.P}
}

func isIdentLike(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '$' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	switch s {
	case "var", "function", "return", "if", "else", "while", "do", "for",
		"in", "new", "delete", "typeof", "instanceof", "null", "true",
		"false", "this", "try", "catch", "finally", "throw", "break",
		"continue", "switch", "case", "default":
		return false
	}
	return true
}

// call performs context cloning: when determinacy facts exist under this
// call site's context and the callee is determinate, the callee is
// specialized for that context — inline for IIFEs, as a named clone for
// declared functions.
func (sp *specializer) call(x *ast.Call, e *env) ast.Expr {
	if sp.opts.EliminateEval {
		if spliced, ok := sp.evalCall(x, e); ok {
			return spliced
		}
	}

	out := &ast.Call{P: x.P}
	for _, a := range x.Args {
		out.Args = append(out.Args, sp.expr(a, e))
	}

	in := sp.instrFor(e, x.P, "call")
	if in == nil || e.depth >= sp.opts.MaxCloneDepth {
		out.Callee = sp.expr(x.Callee, e)
		return out
	}
	childCtx := append(e.ctx.Clone(), facts.ContextEntry{Site: in.IID(), Seq: e.seq()})
	if !sp.ctxPfx[childCtx.Key()] {
		out.Callee = sp.expr(x.Callee, e)
		return out
	}

	// IIFE: specialize the literal body in place.
	if lit, ok := x.Callee.(*ast.FunctionLit); ok {
		fn := sp.fnOfPos[lit.P]
		out.Callee = sp.funcLit(lit, &env{ctx: childCtx, fn: fn, depth: e.depth + 1, iter: -1})
		return out
	}

	// Known determinate callee: emit a context clone when safe.
	if f := sp.factFor(e, x.Callee); f != nil && f.Det && f.Val.Kind == facts.VFunction && f.Val.FnIndex > 0 {
		target := sp.fnByIndex(f.Val.FnIndex)
		if target != nil && target.Decl != nil && sp.hoistSafe(target) {
			cloneName := sp.cloneFor(target, childCtx, e.depth+1)
			if cloneName != "" {
				switch callee := x.Callee.(type) {
				case *ast.Ident:
					out.Callee = &ast.Ident{Name: cloneName, P: callee.P}
					return out
				case *ast.Member:
					// Method call: preserve the receiver via
					// Function.prototype.call.
					recv := sp.expr(callee.Obj, e)
					out.Args = append([]ast.Expr{recv}, out.Args...)
					out.Callee = &ast.Member{
						Obj:  &ast.Ident{Name: cloneName, P: callee.P},
						Prop: "call", P: callee.P,
					}
					return out
				}
			}
		}
	}
	out.Callee = sp.expr(x.Callee, e)
	return out
}

func (sp *specializer) fnByIndex(i int) *ir.Function {
	if i < 0 || i >= len(sp.funcs) {
		return nil
	}
	return sp.funcs[i]
}

// hoistSafe reports whether a function can be cloned to the top level: its
// free variables must resolve to globals, which holds when its lexical
// parent is the top level.
func (sp *specializer) hoistSafe(fn *ir.Function) bool {
	return fn.Parent == sp.mod.Top()
}

// cloneFor returns (creating on demand) the top-level clone of fn
// specialized for ctx.
func (sp *specializer) cloneFor(fn *ir.Function, ctx facts.Context, depth int) string {
	key := fmt.Sprintf("%d|%s", fn.Index, ctx.Key())
	if name, ok := sp.clones[key]; ok {
		return name
	}
	sp.nclones++
	base := fn.Name
	if base == "" {
		base = "anon"
	}
	name := fmt.Sprintf("%s$%d", base, sp.nclones)
	sp.clones[key] = name

	before := sp.stats
	body := sp.stmts(fn.Decl.Body, &env{ctx: ctx, fn: fn, depth: depth, iter: -1})
	if sp.stats == before && !referencesName(body, name) {
		// No fact applied inside this context: the clone would be identical
		// to the original, so drop it and leave the call site alone.
		sp.nclones--
		sp.clones[key] = ""
		return ""
	}
	sp.stats.ClonesCreated++
	sp.newDecls = append(sp.newDecls, &ast.FunctionDecl{
		Fn: &ast.FunctionLit{Name: name, Params: fn.Decl.Params, Body: body, P: fn.Decl.P},
		P:  fn.Decl.P,
	})
	return name
}

// evalCall attempts to replace an eval call with the statically parsed form
// of its determinate argument (§2.3). Like the paper's specializer, this
// operates after dynamic facts have resolved the name binding of eval
// itself: the call is only replaced when the callee is determinately the
// global eval native.
func (sp *specializer) evalCall(x *ast.Call, e *env) (ast.Expr, bool) {
	id, syntacticEval := x.Callee.(*ast.Ident)
	syntacticEval = syntacticEval && id.Name == "eval"
	cf := sp.factFor(e, x.Callee)
	// The call is eval-relevant if it is a syntactic eval call, or the
	// dynamically observed callee value was the eval native (even when the
	// observation is indeterminate: that is exactly the §5.2
	// "indeterminate callee" failure category).
	factIsEval := cf != nil && cf.Val.Kind == facts.VFunction && cf.Val.Native == "eval"
	if !syntacticEval && !factIsEval {
		return nil, false
	}
	in := sp.instrFor(e, x.P, "call")
	if in == nil {
		return nil, false
	}
	site := in.IID()
	note := func(s EvalStatus) { sp.noteEval(site, s) }

	// The callee must be determinately the eval native.
	if cf == nil {
		if len(e.ctx) == 0 && e.fn == nil {
			note(EvalNotCovered)
		}
		return nil, false
	}
	if !cf.Det {
		note(EvalIndetCallee)
		return nil, false
	}
	if cf.Val.Kind != facts.VFunction || cf.Val.Native != "eval" {
		return nil, false // shadowed eval: treat as a regular call
	}
	if len(x.Args) == 0 {
		return nil, false
	}

	// The argument string must be determinate, and stable across loop
	// occurrences unless this copy came from unrolling.
	v, ok := sp.detValue(e, x.Args[0])
	if !ok {
		if f := sp.factFor(e, x.Args[0]); f != nil {
			note(EvalIndetArg)
		} else if len(e.ctx) == 0 && e.fn == nil {
			note(EvalNotCovered)
		}
		return nil, false
	}
	if v.Kind != facts.VString {
		return nil, false
	}
	if sp.mod.IsReentrant(site) && e.iter < 0 {
		if !sp.stableAcrossOccurrences(e, x.Args[0]) {
			note(EvalLoopIndet)
			return nil, false
		}
	}

	spliced, err := parser.ParseExpr(v.Str)
	if err != nil {
		note(EvalParseFailed)
		return nil, false
	}
	spliced = sp.cleanNestedEval(spliced)
	note(EvalEliminated)
	sp.stats.EvalsEliminated++
	return spliced, true
}

// cleanNestedEval syntactically eliminates eval-of-string-literal calls
// inside spliced code (eval("eval('...')") patterns): direct eval of a
// literal is always replaceable by its parse.
func (sp *specializer) cleanNestedEval(x ast.Expr) ast.Expr {
	switch x := x.(type) {
	case *ast.Call:
		if id, ok := x.Callee.(*ast.Ident); ok && id.Name == "eval" && len(x.Args) == 1 {
			if lit, ok := x.Args[0].(*ast.StringLit); ok {
				if inner, err := parser.ParseExpr(lit.Value); err == nil {
					sp.stats.EvalsEliminated++
					return sp.cleanNestedEval(inner)
				}
			}
		}
		out := &ast.Call{Callee: sp.cleanNestedEval(x.Callee), P: x.P}
		for _, a := range x.Args {
			out.Args = append(out.Args, sp.cleanNestedEval(a))
		}
		return out
	case *ast.Binary:
		return &ast.Binary{Op: x.Op, L: sp.cleanNestedEval(x.L), R: sp.cleanNestedEval(x.R), P: x.P}
	case *ast.Logical:
		return &ast.Logical{Op: x.Op, L: sp.cleanNestedEval(x.L), R: sp.cleanNestedEval(x.R), P: x.P}
	case *ast.Unary:
		return &ast.Unary{Op: x.Op, X: sp.cleanNestedEval(x.X), P: x.P}
	case *ast.Cond:
		return &ast.Cond{Test: sp.cleanNestedEval(x.Test), Cons: sp.cleanNestedEval(x.Cons), Alt: sp.cleanNestedEval(x.Alt), P: x.P}
	case *ast.Member:
		return &ast.Member{Obj: sp.cleanNestedEval(x.Obj), Prop: x.Prop, P: x.P}
	case *ast.Index:
		return &ast.Index{Obj: sp.cleanNestedEval(x.Obj), Index: sp.cleanNestedEval(x.Index), P: x.P}
	default:
		return x
	}
}

// stableAcrossOccurrences checks that every recorded occurrence of the
// expression's defining instruction (in this context) is determinate with
// the same value, so a single replacement is valid for all iterations.
func (sp *specializer) stableAcrossOccurrences(e *env, x ast.Expr) bool {
	if _, lit := x.(*ast.StringLit); lit {
		return true
	}
	var kinds []string
	if _, ok := x.(*ast.Ident); ok {
		kinds = []string{"loadvar", "loadglobal"}
	} else if k := defKind(x); k != "" {
		kinds = []string{k}
	} else {
		return false
	}
	for _, k := range kinds {
		in := sp.instrFor(e, x.Pos(), k)
		if in == nil {
			continue
		}
		var first *facts.Snapshot
		for seq := 0; ; seq++ {
			f, ok := sp.store.Lookup(in.IID(), e.ctx, seq)
			if !ok {
				return seq > 0
			}
			if !f.Det {
				return false
			}
			if first == nil {
				v := f.Val
				first = &v
			} else if !first.Equal(f.Val) {
				return false
			}
			if seq > sp.store.MaxSeq {
				return false
			}
		}
	}
	return false
}

// referencesName reports whether any identifier in the statements names n
// (a recursive clone reference that must keep the clone alive).
func referencesName(body []ast.Stmt, n string) bool {
	found := false
	for _, s := range body {
		ast.Walk(s, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok && id.Name == n {
				found = true
			}
			return !found
		})
	}
	return found
}
