package ir

import (
	"fmt"

	"determinacy/internal/ast"
	"determinacy/internal/lexer"
	"determinacy/internal/parser"
)

// LowerError reports a construct that cannot be lowered to the IR.
type LowerError struct {
	Pos lexer.Pos
	Msg string
}

func (e *LowerError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lower translates a parsed program into an IR module.
func Lower(prog *ast.Program) (*Module, error) {
	m := &Module{File: prog.File, Source: prog.Source}
	l := &lowerer{mod: m}
	top := &Function{Name: "<toplevel>", ThisSlot: -1, SelfSlot: -1}
	m.addFunc(top)
	err := l.catching(func() {
		sc := &fnScope{fn: top, slots: map[string]int{}, isTop: true}
		l.scopes = append(l.scopes, sc)
		top.Body = l.lowerBody(prog.Body, sc)
		l.scopes = l.scopes[:0]
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Compile parses and lowers source in one step.
func Compile(file, src string) (*Module, error) {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return Lower(prog)
}

// MustCompile is Compile but panics on error.
func MustCompile(file, src string) *Module {
	m, err := Compile(file, src)
	if err != nil {
		panic(err)
	}
	return m
}

// LowerEval lowers eval'd source at runtime into m, which must be a run
// layer (see Module.Layer). The resulting function's Parent is caller, so
// free identifiers resolve through the caller's static scope chain. The
// function returns the value of its final top-level expression statement,
// matching eval's completion-value semantics for the common case. Lowering
// the same source for the same caller again returns the same function.
//
// Deviations from full JavaScript, documented in DESIGN.md: var declarations
// inside eval'd code are scoped to the eval fragment rather than hoisted
// into the calling function.
func LowerEval(m *Module, src string, caller *Function) (*Function, error) {
	if m.base == nil {
		panic("ir: LowerEval into a frozen module; lower into its Layer")
	}
	key := evalKey{caller.Index, src}
	if fn, ok := m.evals[key]; ok {
		return fn, nil
	}
	prog, err := parser.Parse("<eval>", src)
	if err != nil {
		return nil, err
	}
	l := &lowerer{mod: m}
	fn := &Function{
		Name:     "<eval>",
		Parent:   caller,
		IsEval:   true,
		ThisSlot: -1,
		SelfSlot: -1,
	}
	m.addFunc(fn)
	err = l.catching(func() {
		// Rebuild the lexical scope stack from the caller's Parent chain.
		var chain []*Function
		for f := caller; f != nil; f = f.Parent {
			chain = append(chain, f)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			f := chain[i]
			sc := &fnScope{fn: f, slots: map[string]int{}, isTop: f.Parent == nil && f.Index == 0}
			for idx, name := range f.SlotNames {
				sc.slots[name] = idx
			}
			l.scopes = append(l.scopes, sc)
		}
		sc := &fnScope{fn: fn, slots: map[string]int{}, completion: true}
		l.scopes = append(l.scopes, sc)
		fn.Body = l.lowerBody(prog.Body, sc)
	})
	if err != nil {
		// Drop the last function added; its instruction IDs stay used.
		m.funcs = m.funcs[:len(m.funcs)-1]
		return nil, err
	}
	m.evals[key] = fn
	return fn, nil
}

// ---------------------------------------------------------------------------

type fnScope struct {
	fn    *Function
	slots map[string]int
	isTop bool
	// completion marks eval fragments: the final expression-statement value
	// is returned.
	completion bool
	compReg    Reg
}

type lowerer struct {
	mod    *Module
	scopes []*fnScope
	// loopDepth tracks lexical loop nesting within the current function so
	// emitted instructions can be marked reentrant.
	loopDepth int
	err       error
}

func (l *lowerer) catching(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*LowerError); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (l *lowerer) fail(pos lexer.Pos, format string, args ...any) {
	panic(&LowerError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *lowerer) cur() *fnScope { return l.scopes[len(l.scopes)-1] }

func (l *lowerer) newID(pos lexer.Pos) instrBase {
	id := ID(l.mod.NumInstrs)
	l.mod.NumInstrs++
	return instrBase{ID: id, Pos: pos}
}

func (l *lowerer) newReg() Reg {
	sc := l.cur()
	r := Reg(sc.fn.NumRegs)
	sc.fn.NumRegs++
	return r
}

// note registers an instruction in the module indexes, marking it
// reentrant when it sits inside a loop of the current function.
func (l *lowerer) note(in Instr) {
	l.mod.register(in, l.cur().fn, l.loopDepth > 0)
}

func (l *lowerer) emit(b *Block, in Instr) {
	l.note(in)
	b.Instrs = append(b.Instrs, in)
}

// resolve finds the variable binding for name. It returns ok=false when the
// name is unbound in all enclosing function scopes, i.e. a global.
func (l *lowerer) resolve(name string) (VarRef, bool) {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		sc := l.scopes[i]
		if slot, ok := sc.slots[name]; ok {
			return VarRef{Hops: len(l.scopes) - 1 - i, Slot: slot, Name: name}, true
		}
	}
	return VarRef{}, false
}

// declare adds a slot for name in the current function scope (top-level
// declarations become globals and get no slot).
func (l *lowerer) declare(name string) {
	sc := l.cur()
	if sc.isTop {
		return
	}
	if _, ok := sc.slots[name]; ok {
		return
	}
	sc.slots[name] = sc.fn.NumSlots
	sc.fn.SlotNames = append(sc.fn.SlotNames, name)
	sc.fn.NumSlots++
}

// hoist collects var and function declarations from a statement list without
// descending into nested functions, mirroring JavaScript hoisting.
func (l *lowerer) hoist(body []ast.Stmt) (fnDecls []*ast.FunctionDecl) {
	var walkStmt func(s ast.Stmt)
	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.VarDecl:
			for _, d := range s.Decls {
				l.declare(d.Name)
			}
		case *ast.FunctionDecl:
			l.declare(s.Fn.Name)
			fnDecls = append(fnDecls, s)
		case *ast.Block:
			for _, t := range s.Body {
				walkStmt(t)
			}
		case *ast.If:
			walkStmt(s.Cons)
			if s.Alt != nil {
				walkStmt(s.Alt)
			}
		case *ast.While:
			walkStmt(s.Body)
		case *ast.DoWhile:
			walkStmt(s.Body)
		case *ast.For:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			walkStmt(s.Body)
		case *ast.ForIn:
			if s.Declare {
				l.declare(s.Name)
			}
			walkStmt(s.Body)
		case *ast.Try:
			walkStmt(s.Block)
			if s.Catch != nil {
				l.declare(s.CatchParam)
				walkStmt(s.Catch)
			}
			if s.Finally != nil {
				walkStmt(s.Finally)
			}
		case *ast.Switch:
			for _, c := range s.Cases {
				for _, t := range c.Body {
					walkStmt(t)
				}
			}
		}
	}
	for _, s := range body {
		walkStmt(s)
	}
	return fnDecls
}

// lowerBody lowers a function (or top-level) body: hoists declarations,
// emits closures for hoisted function declarations, then lowers statements.
func (l *lowerer) lowerBody(body []ast.Stmt, sc *fnScope) *Block {
	b := &Block{}
	fnDecls := l.hoist(body)
	for _, fd := range fnDecls {
		r := l.lowerFunctionLit(b, fd.Fn, true)
		l.storeName(b, fd.Fn.Name, r, fd.P)
	}
	if sc.completion {
		sc.compReg = l.newReg()
		l.emit(b, &Const{instrBase: l.newID(lexer.Pos{}), Dst: sc.compReg, Val: Literal{Kind: LitUndefined}})
	}
	for _, s := range body {
		l.lowerStmt(b, s)
	}
	if sc.completion {
		l.emit(b, &Return{instrBase: l.newID(lexer.Pos{}), Src: sc.compReg})
	}
	return b
}

// storeName assigns r to the named variable or global.
func (l *lowerer) storeName(b *Block, name string, r Reg, pos lexer.Pos) {
	if v, ok := l.resolve(name); ok {
		l.emit(b, &StoreVar{instrBase: l.newID(pos), Var: v, Src: r})
		return
	}
	l.emit(b, &StoreGlobal{instrBase: l.newID(pos), Name: name, Src: r})
}

func (l *lowerer) lowerFunctionLit(b *Block, fn *ast.FunctionLit, isDecl bool) Reg {
	f := &Function{
		Name:     fn.Name,
		Params:   fn.Params,
		Parent:   l.cur().fn,
		Pos:      fn.P,
		Decl:     fn,
		ThisSlot: -1,
		SelfSlot: -1,
	}
	l.mod.addFunc(f)
	sc := &fnScope{fn: f, slots: map[string]int{}}
	l.scopes = append(l.scopes, sc)
	savedDepth := l.loopDepth
	l.loopDepth = 0
	// A named function expression binds its own name inside its body;
	// parameters and vars of the same name shadow it.
	if fn.Name != "" && !isDecl {
		l.declare(fn.Name)
		f.SelfSlot = sc.slots[fn.Name]
	}
	for _, p := range fn.Params {
		l.declare(p)
	}
	// Every function has an implicit `this` binding.
	l.declare("this")
	f.ThisSlot = sc.slots["this"]
	f.Body = l.lowerBody(fn.Body, sc)
	l.scopes = l.scopes[:len(l.scopes)-1]
	l.loopDepth = savedDepth

	dst := l.newReg()
	l.emit(b, &MakeClosure{instrBase: l.newID(fn.P), Dst: dst, Fn: f})
	return dst
}

// ---------------------------------------------------------------------------
// Statements

func (l *lowerer) lowerStmt(b *Block, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		for _, d := range s.Decls {
			if d.Init == nil {
				continue
			}
			r := l.lowerExpr(b, d.Init)
			l.storeName(b, d.Name, r, s.P)
		}
	case *ast.FunctionDecl:
		// Lowered during hoisting.
	case *ast.ExprStmt:
		r := l.lowerExpr(b, s.X)
		if sc := l.cur(); sc.completion {
			l.emit(b, &Move{instrBase: l.newID(s.P), Dst: sc.compReg, Src: r})
		}
	case *ast.Block:
		for _, t := range s.Body {
			l.lowerStmt(b, t)
		}
	case *ast.Empty:
	case *ast.If:
		cond := l.lowerExpr(b, s.Test)
		in := &If{instrBase: l.newID(s.P), Cond: cond, Then: &Block{}}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		l.lowerStmt(in.Then, s.Cons)
		if s.Alt != nil {
			in.Else = &Block{}
			l.lowerStmt(in.Else, s.Alt)
		}
	case *ast.While:
		in := &While{instrBase: l.newID(s.P), CondBlock: &Block{}, Body: &Block{}}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		l.loopDepth++
		in.Cond = l.lowerExpr(in.CondBlock, s.Test)
		l.lowerStmt(in.Body, s.Body)
		l.loopDepth--
	case *ast.DoWhile:
		in := &While{instrBase: l.newID(s.P), CondBlock: &Block{}, Body: &Block{}, PostTest: true}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		l.loopDepth++
		in.Cond = l.lowerExpr(in.CondBlock, s.Test)
		l.lowerStmt(in.Body, s.Body)
		l.loopDepth--
	case *ast.For:
		if s.Init != nil {
			l.lowerStmt(b, s.Init)
		}
		in := &While{instrBase: l.newID(s.P), CondBlock: &Block{}, Body: &Block{}}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		l.loopDepth++
		if s.Test != nil {
			in.Cond = l.lowerExpr(in.CondBlock, s.Test)
		} else {
			in.Cond = l.newReg()
			l.emit(in.CondBlock, &Const{instrBase: l.newID(s.P), Dst: in.Cond, Val: Literal{Kind: LitBool, Bool: true}})
		}
		l.lowerStmt(in.Body, s.Body)
		if s.Update != nil {
			in.Update = &Block{}
			l.lowerExpr(in.Update, s.Update)
		}
		l.loopDepth--
	case *ast.ForIn:
		obj := l.lowerExpr(b, s.Obj)
		in := &ForIn{instrBase: l.newID(s.P), Obj: obj, Body: &Block{}}
		if v, ok := l.resolve(s.Name); ok {
			in.Target = v
		} else {
			in.Global = true
			in.TargetGlobal = s.Name
		}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		l.loopDepth++
		l.lowerStmt(in.Body, s.Body)
		l.loopDepth--
	case *ast.Return:
		src := NoReg
		if s.Value != nil {
			src = l.lowerExpr(b, s.Value)
		}
		l.emit(b, &Return{instrBase: l.newID(s.P), Src: src})
	case *ast.Break:
		l.emit(b, &Break{instrBase: l.newID(s.P)})
	case *ast.Continue:
		l.emit(b, &Continue{instrBase: l.newID(s.P)})
	case *ast.Throw:
		src := l.lowerExpr(b, s.Value)
		l.emit(b, &Throw{instrBase: l.newID(s.P), Src: src})
	case *ast.Try:
		in := &Try{instrBase: l.newID(s.P), Body: &Block{}}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		for _, t := range s.Block.Body {
			l.lowerStmt(in.Body, t)
		}
		if s.Catch != nil {
			in.HasCatch = true
			if v, ok := l.resolve(s.CatchParam); ok {
				in.CatchVar = v
			} else {
				// Top level: the catch variable binds a global.
				in.GlobalCatch = s.CatchParam
			}
			in.Catch = &Block{}
			for _, t := range s.Catch.Body {
				l.lowerStmt(in.Catch, t)
			}
		}
		if s.Finally != nil {
			in.Finally = &Block{}
			for _, t := range s.Finally.Body {
				l.lowerStmt(in.Finally, t)
			}
		}
	case *ast.Switch:
		l.lowerSwitch(b, s)
	default:
		l.fail(s.Pos(), "cannot lower statement %T", s)
	}
}

// lowerSwitch lowers a switch statement to an if/else chain. Fall-through
// between non-empty case bodies is not supported; consecutive empty cases
// share the following body (the common "case a: case b:" idiom). Each
// non-final body must end the switch explicitly (break/return/throw); the
// trailing break is stripped during lowering.
func (l *lowerer) lowerSwitch(b *Block, s *ast.Switch) {
	disc := l.lowerExpr(b, s.Disc)

	type group struct {
		tests []ast.Expr // nil test = default
		body  []ast.Stmt
		isDef bool
	}
	var groups []group
	var pending []ast.Expr
	pendingDef := false
	for i, c := range s.Cases {
		if c.Test == nil {
			pendingDef = true
		} else {
			pending = append(pending, c.Test)
		}
		if len(c.Body) == 0 && i < len(s.Cases)-1 {
			continue // empty case falls through to the next test group
		}
		body := c.Body
		if n := len(body); n > 0 {
			if _, ok := body[n-1].(*ast.Break); ok {
				body = body[:n-1]
			} else if i < len(s.Cases)-1 {
				switch body[n-1].(type) {
				case *ast.Return, *ast.Throw, *ast.Continue:
				default:
					l.fail(s.P, "switch fall-through between non-empty cases is not supported")
				}
			}
		}
		for _, t := range body {
			if _, ok := t.(*ast.Break); ok {
				l.fail(s.P, "break in non-trailing position inside switch case is not supported")
			}
		}
		groups = append(groups, group{tests: pending, body: body, isDef: pendingDef})
		pending = nil
		pendingDef = false
	}

	// Build the chain: each group with tests becomes if (disc===t1 || ...),
	// the default group becomes the final else.
	var defGroup *group
	var chain []group
	for i := range groups {
		if groups[i].isDef && len(groups[i].tests) == 0 {
			defGroup = &groups[i]
		} else {
			chain = append(chain, groups[i])
		}
	}
	cur := b
	for _, g := range chain {
		cond := l.newReg()
		first := true
		for _, t := range g.tests {
			tr := l.lowerExpr(cur, t)
			eq := l.newReg()
			l.emit(cur, &BinOp{instrBase: l.newID(t.Pos()), Dst: eq, Op: "===", L: disc, R: tr})
			if first {
				l.emit(cur, &Move{instrBase: l.newID(t.Pos()), Dst: cond, Src: eq})
				first = false
			} else {
				// cond = cond || eq, without short-circuit (tests are pure
				// comparisons against an already-computed register).
				or := l.newReg()
				l.emit(cur, &BinOp{instrBase: l.newID(t.Pos()), Dst: or, Op: "||#", L: cond, R: eq})
				l.emit(cur, &Move{instrBase: l.newID(t.Pos()), Dst: cond, Src: or})
			}
		}
		in := &If{instrBase: l.newID(s.P), Cond: cond, Then: &Block{}, Else: &Block{}}
		l.note(in)
		cur.Instrs = append(cur.Instrs, in)
		for _, t := range g.body {
			l.lowerStmt(in.Then, t)
		}
		if g.isDef && defGroup == nil {
			// A default that shares its body with case labels: the chain
			// must also run this body when nothing else matches. Treat the
			// whole group as default by running the body in the else branch
			// too. Rare; keep behaviour simple and correct.
			for _, t := range g.body {
				l.lowerStmt(in.Else, t)
			}
			return
		}
		cur = in.Else
	}
	if defGroup != nil {
		for _, t := range defGroup.body {
			l.lowerStmt(cur, t)
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (l *lowerer) lowerExpr(b *Block, e ast.Expr) Reg {
	switch e := e.(type) {
	case *ast.NumberLit:
		return l.constReg(b, e.P, Literal{Kind: LitNumber, Num: e.Value})
	case *ast.StringLit:
		return l.constReg(b, e.P, Literal{Kind: LitString, Str: e.Value})
	case *ast.BoolLit:
		return l.constReg(b, e.P, Literal{Kind: LitBool, Bool: e.Value})
	case *ast.NullLit:
		return l.constReg(b, e.P, Literal{Kind: LitNull})
	case *ast.UndefinedLit:
		return l.constReg(b, e.P, Literal{Kind: LitUndefined})
	case *ast.Ident:
		dst := l.newReg()
		if v, ok := l.resolve(e.Name); ok {
			l.emit(b, &LoadVar{instrBase: l.newID(e.P), Dst: dst, Var: v})
		} else {
			l.emit(b, &LoadGlobal{instrBase: l.newID(e.P), Dst: dst, Name: e.Name})
		}
		return dst
	case *ast.ThisExpr:
		// `this` is a reserved local slot inside functions; at the top
		// level it is the global object, predefined as globalThis.
		dst := l.newReg()
		if v, ok := l.resolve("this"); ok {
			l.emit(b, &LoadVar{instrBase: l.newID(e.P), Dst: dst, Var: v})
		} else {
			l.emit(b, &LoadGlobal{instrBase: l.newID(e.P), Dst: dst, Name: "globalThis"})
		}
		return dst
	case *ast.FunctionLit:
		return l.lowerFunctionLit(b, e, false)
	case *ast.ObjectLit:
		var props []Prop
		for _, p := range e.Props {
			r := l.lowerExpr(b, p.Value)
			props = append(props, Prop{Key: p.Key, Val: r})
		}
		dst := l.newReg()
		l.emit(b, &MakeObject{instrBase: l.newID(e.P), Dst: dst, Props: props})
		return dst
	case *ast.ArrayLit:
		var elems []Reg
		for _, el := range e.Elems {
			elems = append(elems, l.lowerExpr(b, el))
		}
		dst := l.newReg()
		l.emit(b, &MakeArray{instrBase: l.newID(e.P), Dst: dst, Elems: elems})
		return dst
	case *ast.Member:
		obj := l.lowerExpr(b, e.Obj)
		dst := l.newReg()
		l.emit(b, &GetField{instrBase: l.newID(e.P), Dst: dst, Obj: obj, Name: e.Prop})
		return dst
	case *ast.Index:
		obj := l.lowerExpr(b, e.Obj)
		idx := l.lowerExpr(b, e.Index)
		dst := l.newReg()
		l.emit(b, &GetProp{instrBase: l.newID(e.P), Dst: dst, Obj: obj, Prop: idx})
		return dst
	case *ast.Call:
		return l.lowerCall(b, e)
	case *ast.New:
		fn := l.lowerExpr(b, e.Callee)
		var args []Reg
		for _, a := range e.Args {
			args = append(args, l.lowerExpr(b, a))
		}
		dst := l.newReg()
		l.emit(b, &New{instrBase: l.newID(e.P), Dst: dst, Fn: fn, Args: args})
		return dst
	case *ast.Unary:
		return l.lowerUnary(b, e)
	case *ast.Update:
		return l.lowerUpdate(b, e)
	case *ast.Binary:
		lr := l.lowerExpr(b, e.L)
		rr := l.lowerExpr(b, e.R)
		dst := l.newReg()
		l.emit(b, &BinOp{instrBase: l.newID(e.P), Dst: dst, Op: e.Op, L: lr, R: rr})
		return dst
	case *ast.Logical:
		// result = L; if (result) result = R   (&&)
		// result = L; if (!result) result = R  (||)
		res := l.newReg()
		lr := l.lowerExpr(b, e.L)
		l.emit(b, &Move{instrBase: l.newID(e.P), Dst: res, Src: lr})
		cond := res
		if e.Op == "||" {
			cond = l.newReg()
			l.emit(b, &UnOp{instrBase: l.newID(e.P), Dst: cond, Op: "!", X: res})
		}
		in := &If{instrBase: l.newID(e.P), Cond: cond, Then: &Block{}}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		rr := l.lowerExpr(in.Then, e.R)
		l.emit(in.Then, &Move{instrBase: l.newID(e.P), Dst: res, Src: rr})
		return res
	case *ast.Cond:
		res := l.newReg()
		cond := l.lowerExpr(b, e.Test)
		in := &If{instrBase: l.newID(e.P), Cond: cond, Then: &Block{}, Else: &Block{}}
		l.note(in)
		b.Instrs = append(b.Instrs, in)
		cr := l.lowerExpr(in.Then, e.Cons)
		l.emit(in.Then, &Move{instrBase: l.newID(e.P), Dst: res, Src: cr})
		ar := l.lowerExpr(in.Else, e.Alt)
		l.emit(in.Else, &Move{instrBase: l.newID(e.P), Dst: res, Src: ar})
		return res
	case *ast.Assign:
		return l.lowerAssign(b, e)
	case *ast.Seq:
		l.lowerExpr(b, e.L)
		return l.lowerExpr(b, e.R)
	default:
		l.fail(e.Pos(), "cannot lower expression %T", e)
		return NoReg
	}
}

func (l *lowerer) constReg(b *Block, pos lexer.Pos, lit Literal) Reg {
	dst := l.newReg()
	l.emit(b, &Const{instrBase: l.newID(pos), Dst: dst, Val: lit})
	return dst
}

func (l *lowerer) lowerCall(b *Block, e *ast.Call) Reg {
	var fn Reg
	this := NoReg
	switch callee := e.Callee.(type) {
	case *ast.Member:
		this = l.lowerExpr(b, callee.Obj)
		fn = l.newReg()
		l.emit(b, &GetField{instrBase: l.newID(callee.P), Dst: fn, Obj: this, Name: callee.Prop})
	case *ast.Index:
		this = l.lowerExpr(b, callee.Obj)
		idx := l.lowerExpr(b, callee.Index)
		fn = l.newReg()
		l.emit(b, &GetProp{instrBase: l.newID(callee.P), Dst: fn, Obj: this, Prop: idx})
	default:
		fn = l.lowerExpr(b, e.Callee)
	}
	var args []Reg
	for _, a := range e.Args {
		args = append(args, l.lowerExpr(b, a))
	}
	dst := l.newReg()
	l.emit(b, &Call{instrBase: l.newID(e.P), Dst: dst, Fn: fn, This: this, Args: args})
	return dst
}

func (l *lowerer) lowerUnary(b *Block, e *ast.Unary) Reg {
	switch e.Op {
	case "typeof":
		// typeof on an unresolved identifier must not throw.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, bound := l.resolve(id.Name); !bound {
				x := l.newReg()
				l.emit(b, &LoadGlobal{instrBase: l.newID(id.P), Dst: x, Name: id.Name, ForTypeof: true})
				dst := l.newReg()
				l.emit(b, &UnOp{instrBase: l.newID(e.P), Dst: dst, Op: "typeof", X: x})
				return dst
			}
		}
		x := l.lowerExpr(b, e.X)
		dst := l.newReg()
		l.emit(b, &UnOp{instrBase: l.newID(e.P), Dst: dst, Op: "typeof", X: x})
		return dst
	case "delete":
		switch t := e.X.(type) {
		case *ast.Member:
			obj := l.lowerExpr(b, t.Obj)
			dst := l.newReg()
			l.emit(b, &DelField{instrBase: l.newID(e.P), Dst: dst, Obj: obj, Name: t.Prop})
			return dst
		case *ast.Index:
			obj := l.lowerExpr(b, t.Obj)
			idx := l.lowerExpr(b, t.Index)
			dst := l.newReg()
			l.emit(b, &DelProp{instrBase: l.newID(e.P), Dst: dst, Obj: obj, Prop: idx})
			return dst
		default:
			// delete of a non-reference yields true without effect.
			l.lowerExpr(b, e.X)
			return l.constReg(b, e.P, Literal{Kind: LitBool, Bool: true})
		}
	default:
		x := l.lowerExpr(b, e.X)
		dst := l.newReg()
		l.emit(b, &UnOp{instrBase: l.newID(e.P), Dst: dst, Op: e.Op, X: x})
		return dst
	}
}

func (l *lowerer) lowerUpdate(b *Block, e *ast.Update) Reg {
	op := "+"
	if e.Op == "--" {
		op = "-"
	}
	one := l.constReg(b, e.P, Literal{Kind: LitNumber, Num: 1})
	load, store := l.lvalue(b, e.X)
	old := load()
	// Coerce the old value to a number so postfix results match JS.
	oldNum := l.newReg()
	l.emit(b, &UnOp{instrBase: l.newID(e.P), Dst: oldNum, Op: "+", X: old})
	upd := l.newReg()
	l.emit(b, &BinOp{instrBase: l.newID(e.P), Dst: upd, Op: op, L: oldNum, R: one})
	store(upd)
	if e.Prefix {
		return upd
	}
	return oldNum
}

func (l *lowerer) lowerAssign(b *Block, e *ast.Assign) Reg {
	load, store := l.lvalue(b, e.Target)
	if e.Op == "=" {
		v := l.lowerExpr(b, e.Value)
		store(v)
		return v
	}
	binOp := e.Op[:len(e.Op)-1] // "+=" -> "+"
	old := load()
	v := l.lowerExpr(b, e.Value)
	dst := l.newReg()
	l.emit(b, &BinOp{instrBase: l.newID(e.P), Dst: dst, Op: binOp, L: old, R: v})
	store(dst)
	return dst
}

// lvalue prepares an assignment target, evaluating its subexpressions once,
// and returns load/store thunks over the prepared registers.
func (l *lowerer) lvalue(b *Block, target ast.Expr) (load func() Reg, store func(Reg)) {
	switch t := target.(type) {
	case *ast.Ident:
		if v, ok := l.resolve(t.Name); ok {
			return func() Reg {
					dst := l.newReg()
					l.emit(b, &LoadVar{instrBase: l.newID(t.P), Dst: dst, Var: v})
					return dst
				}, func(src Reg) {
					l.emit(b, &StoreVar{instrBase: l.newID(t.P), Var: v, Src: src})
				}
		}
		return func() Reg {
				dst := l.newReg()
				l.emit(b, &LoadGlobal{instrBase: l.newID(t.P), Dst: dst, Name: t.Name})
				return dst
			}, func(src Reg) {
				l.emit(b, &StoreGlobal{instrBase: l.newID(t.P), Name: t.Name, Src: src})
			}
	case *ast.Member:
		obj := l.lowerExpr(b, t.Obj)
		return func() Reg {
				dst := l.newReg()
				l.emit(b, &GetField{instrBase: l.newID(t.P), Dst: dst, Obj: obj, Name: t.Prop})
				return dst
			}, func(src Reg) {
				l.emit(b, &SetField{instrBase: l.newID(t.P), Obj: obj, Name: t.Prop, Src: src})
			}
	case *ast.Index:
		obj := l.lowerExpr(b, t.Obj)
		idx := l.lowerExpr(b, t.Index)
		return func() Reg {
				dst := l.newReg()
				l.emit(b, &GetProp{instrBase: l.newID(t.P), Dst: dst, Obj: obj, Prop: idx})
				return dst
			}, func(src Reg) {
				l.emit(b, &SetProp{instrBase: l.newID(t.P), Obj: obj, Prop: idx, Src: src})
			}
	default:
		l.fail(target.Pos(), "invalid assignment target %T", target)
		return nil, nil
	}
}
