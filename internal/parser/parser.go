// Package parser builds mini-JS abstract syntax trees from source text.
//
// The grammar is a subset of ECMAScript 5.1 covering everything the paper's
// examples and case studies exercise: function declarations and expressions,
// closures, object/array literals, prototype-based construction with new,
// static and computed property accesses, the full expression operator set,
// if/while/do/for/for-in/switch, try/catch/finally, and eval (which is just
// a call to the global eval binding; the interpreters give it its meaning).
package parser

import (
	"errors"
	"fmt"

	"determinacy/internal/ast"
	"determinacy/internal/lexer"
)

// ErrDepth is the sentinel category of nesting-depth syntax errors, so
// callers can tell resource-limit rejections from plain syntax errors
// with errors.Is through every API layer (the MaxDepth guard exists to
// turn adversarial inputs into errors instead of stack overflows).
var ErrDepth = errors.New("parser: nesting depth limit exceeded")

// Error is a syntax error with a source position.
type Error struct {
	Pos lexer.Pos
	Msg string
	// Err, when non-nil, is the error's sentinel category (ErrDepth).
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Unwrap exposes the sentinel category to errors.Is chains.
func (e *Error) Unwrap() error { return e.Err }

// Parse parses src and returns the program. file is a display name used in
// diagnostics.
func Parse(file, src string) (*ast.Program, error) {
	l := lexer.New(src)
	toks := l.All()
	if err := l.Err(); err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &ast.Program{Source: src, File: file}
	err := p.catching(func() {
		for !p.at(lexer.EOF, "") {
			prog.Body = append(prog.Body, p.statement())
		}
	})
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExpr parses a single expression (used by the eval eliminator when
// splicing evaluated strings).
func ParseExpr(src string) (ast.Expr, error) {
	l := lexer.New(src)
	toks := l.All()
	if err := l.Err(); err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var e ast.Expr
	err := p.catching(func() {
		e = p.assignExpr()
		if !p.at(lexer.EOF, "") {
			p.fail(p.cur().Pos, "unexpected %s after expression", p.cur())
		}
	})
	return e, err
}

// MaxDepth bounds syntactic nesting (blocks inside blocks, parenthesized
// expressions, unary chains). The recursive-descent parser spends several Go
// stack frames per level, so without a limit adversarial inputs like
// strings.Repeat("(", 1e6) crash the process with a stack overflow instead
// of returning a syntax error. 512 levels is far beyond any program the
// generator or the paper's case studies produce.
const MaxDepth = 512

type parser struct {
	toks  []lexer.Token
	pos   int
	depth int
	err   error
}

// enter counts one level of statement/expression nesting; paired with leave.
func (p *parser) enter() {
	p.depth++
	if p.depth > MaxDepth {
		e := &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf("nesting exceeds %d levels", MaxDepth), Err: ErrDepth}
		if p.err == nil {
			p.err = e
		}
		panic(e)
	}
}

func (p *parser) leave() { p.depth-- }

func (p *parser) catching(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*Error); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (p *parser) cur() lexer.Token { return p.toks[p.pos] }

func (p *parser) lookahead(n int) lexer.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) fail(pos lexer.Pos, format string, args ...any) {
	e := &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	if p.err == nil {
		p.err = e
	}
	panic(e)
}

// at reports whether the current token has the given kind and, when lit is
// non-empty, the given literal.
func (p *parser) at(k lexer.Kind, lit string) bool {
	t := p.cur()
	return t.Kind == k && (lit == "" || t.Lit == lit)
}

func (p *parser) atPunct(lit string) bool   { return p.at(lexer.Punct, lit) }
func (p *parser) atKeyword(lit string) bool { return p.at(lexer.Keyword, lit) }

// eat consumes the current token if it matches, reporting success.
func (p *parser) eat(k lexer.Kind, lit string) bool {
	if p.at(k, lit) {
		p.next()
		return true
	}
	return false
}

// expect consumes a token that must match or fails.
func (p *parser) expect(k lexer.Kind, lit string) lexer.Token {
	if !p.at(k, lit) {
		p.fail(p.cur().Pos, "expected %q, found %s", lit, p.cur())
	}
	return p.next()
}

// semicolon consumes an optional statement-terminating semicolon. Mini-JS
// does not implement automatic semicolon insertion in full; instead,
// semicolons are simply optional before } and EOF, which covers idiomatic
// code.
func (p *parser) semicolon() {
	if p.eat(lexer.Punct, ";") {
		return
	}
	if p.atPunct("}") || p.at(lexer.EOF, "") {
		return
	}
	p.fail(p.cur().Pos, "expected ';', found %s", p.cur())
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) statement() ast.Stmt {
	p.enter()
	defer p.leave()
	t := p.cur()
	switch {
	case p.atKeyword("var"):
		s := p.varDecl()
		p.semicolon()
		return s
	case p.atKeyword("function"):
		return p.functionDecl()
	case p.atPunct("{"):
		return p.blockStmt()
	case p.atKeyword("if"):
		return p.ifStmt()
	case p.atKeyword("while"):
		return p.whileStmt()
	case p.atKeyword("do"):
		return p.doWhileStmt()
	case p.atKeyword("for"):
		return p.forStmt()
	case p.atKeyword("return"):
		p.next()
		s := &ast.Return{P: t.Pos}
		if !p.atPunct(";") && !p.atPunct("}") && !p.at(lexer.EOF, "") {
			s.Value = p.expression()
		}
		p.semicolon()
		return s
	case p.atKeyword("break"):
		p.next()
		p.semicolon()
		return &ast.Break{P: t.Pos}
	case p.atKeyword("continue"):
		p.next()
		p.semicolon()
		return &ast.Continue{P: t.Pos}
	case p.atKeyword("throw"):
		p.next()
		v := p.expression()
		p.semicolon()
		return &ast.Throw{Value: v, P: t.Pos}
	case p.atKeyword("try"):
		return p.tryStmt()
	case p.atKeyword("switch"):
		return p.switchStmt()
	case p.atPunct(";"):
		p.next()
		return &ast.Empty{P: t.Pos}
	default:
		e := p.expression()
		p.semicolon()
		return &ast.ExprStmt{X: e, P: t.Pos}
	}
}

func (p *parser) varDecl() *ast.VarDecl {
	t := p.expect(lexer.Keyword, "var")
	d := &ast.VarDecl{P: t.Pos}
	for {
		name := p.identName()
		var init ast.Expr
		if p.eat(lexer.Punct, "=") {
			init = p.assignExpr()
		}
		d.Decls = append(d.Decls, ast.Declarator{Name: name, Init: init})
		if !p.eat(lexer.Punct, ",") {
			return d
		}
	}
}

func (p *parser) identName() string {
	t := p.cur()
	if t.Kind != lexer.Ident {
		p.fail(t.Pos, "expected identifier, found %s", t)
	}
	p.next()
	return t.Lit
}

func (p *parser) functionDecl() ast.Stmt {
	t := p.cur()
	fn := p.functionLit(true)
	return &ast.FunctionDecl{Fn: fn, P: t.Pos}
}

// functionLit parses a function literal at the "function" keyword. When
// nameRequired, a name must be present (declaration position).
func (p *parser) functionLit(nameRequired bool) *ast.FunctionLit {
	t := p.expect(lexer.Keyword, "function")
	fn := &ast.FunctionLit{P: t.Pos}
	if p.cur().Kind == lexer.Ident {
		fn.Name = p.identName()
	} else if nameRequired {
		p.fail(p.cur().Pos, "expected function name, found %s", p.cur())
	}
	p.expect(lexer.Punct, "(")
	for !p.atPunct(")") {
		fn.Params = append(fn.Params, p.identName())
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, ")")
	p.expect(lexer.Punct, "{")
	for !p.atPunct("}") && !p.at(lexer.EOF, "") {
		fn.Body = append(fn.Body, p.statement())
	}
	p.expect(lexer.Punct, "}")
	return fn
}

func (p *parser) blockStmt() *ast.Block {
	t := p.expect(lexer.Punct, "{")
	b := &ast.Block{P: t.Pos}
	for !p.atPunct("}") && !p.at(lexer.EOF, "") {
		b.Body = append(b.Body, p.statement())
	}
	p.expect(lexer.Punct, "}")
	return b
}

func (p *parser) ifStmt() ast.Stmt {
	t := p.expect(lexer.Keyword, "if")
	p.expect(lexer.Punct, "(")
	test := p.expression()
	p.expect(lexer.Punct, ")")
	cons := p.statement()
	var alt ast.Stmt
	if p.eat(lexer.Keyword, "else") {
		alt = p.statement()
	}
	return &ast.If{Test: test, Cons: cons, Alt: alt, P: t.Pos}
}

func (p *parser) whileStmt() ast.Stmt {
	t := p.expect(lexer.Keyword, "while")
	p.expect(lexer.Punct, "(")
	test := p.expression()
	p.expect(lexer.Punct, ")")
	body := p.statement()
	return &ast.While{Test: test, Body: body, P: t.Pos}
}

func (p *parser) doWhileStmt() ast.Stmt {
	t := p.expect(lexer.Keyword, "do")
	body := p.statement()
	p.expect(lexer.Keyword, "while")
	p.expect(lexer.Punct, "(")
	test := p.expression()
	p.expect(lexer.Punct, ")")
	p.semicolon()
	return &ast.DoWhile{Body: body, Test: test, P: t.Pos}
}

func (p *parser) forStmt() ast.Stmt {
	t := p.expect(lexer.Keyword, "for")
	p.expect(lexer.Punct, "(")

	// for (var x in e) and for (x in e)
	if p.atKeyword("var") && p.lookahead(1).Kind == lexer.Ident && p.lookahead(2).Kind == lexer.Keyword && p.lookahead(2).Lit == "in" {
		p.next()
		name := p.identName()
		p.expect(lexer.Keyword, "in")
		obj := p.expression()
		p.expect(lexer.Punct, ")")
		body := p.statement()
		return &ast.ForIn{Name: name, Declare: true, Obj: obj, Body: body, P: t.Pos}
	}
	if p.cur().Kind == lexer.Ident && p.lookahead(1).Kind == lexer.Keyword && p.lookahead(1).Lit == "in" {
		name := p.identName()
		p.expect(lexer.Keyword, "in")
		obj := p.expression()
		p.expect(lexer.Punct, ")")
		body := p.statement()
		return &ast.ForIn{Name: name, Declare: false, Obj: obj, Body: body, P: t.Pos}
	}

	f := &ast.For{P: t.Pos}
	if !p.atPunct(";") {
		if p.atKeyword("var") {
			f.Init = p.varDecl()
		} else {
			e := p.expression()
			f.Init = &ast.ExprStmt{X: e, P: e.Pos()}
		}
	}
	p.expect(lexer.Punct, ";")
	if !p.atPunct(";") {
		f.Test = p.expression()
	}
	p.expect(lexer.Punct, ";")
	if !p.atPunct(")") {
		f.Update = p.expression()
	}
	p.expect(lexer.Punct, ")")
	f.Body = p.statement()
	return f
}

func (p *parser) tryStmt() ast.Stmt {
	t := p.expect(lexer.Keyword, "try")
	try := &ast.Try{P: t.Pos}
	try.Block = p.blockStmt()
	if p.eat(lexer.Keyword, "catch") {
		p.expect(lexer.Punct, "(")
		try.CatchParam = p.identName()
		p.expect(lexer.Punct, ")")
		try.Catch = p.blockStmt()
	}
	if p.eat(lexer.Keyword, "finally") {
		try.Finally = p.blockStmt()
	}
	if try.Catch == nil && try.Finally == nil {
		p.fail(t.Pos, "try statement requires catch or finally")
	}
	return try
}

func (p *parser) switchStmt() ast.Stmt {
	t := p.expect(lexer.Keyword, "switch")
	p.expect(lexer.Punct, "(")
	disc := p.expression()
	p.expect(lexer.Punct, ")")
	p.expect(lexer.Punct, "{")
	sw := &ast.Switch{Disc: disc, P: t.Pos}
	seenDefault := false
	for !p.atPunct("}") && !p.at(lexer.EOF, "") {
		var c ast.Case
		if p.eat(lexer.Keyword, "case") {
			c.Test = p.expression()
		} else {
			p.expect(lexer.Keyword, "default")
			if seenDefault {
				p.fail(p.cur().Pos, "multiple default clauses in switch")
			}
			seenDefault = true
		}
		p.expect(lexer.Punct, ":")
		for !p.atKeyword("case") && !p.atKeyword("default") && !p.atPunct("}") && !p.at(lexer.EOF, "") {
			c.Body = append(c.Body, p.statement())
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.expect(lexer.Punct, "}")
	return sw
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) expression() ast.Expr {
	e := p.assignExpr()
	for p.atPunct(",") {
		t := p.next()
		r := p.assignExpr()
		e = &ast.Seq{L: e, R: r, P: t.Pos}
	}
	return e
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true, ">>>=": true,
}

func (p *parser) assignExpr() ast.Expr {
	e := p.condExpr()
	t := p.cur()
	if t.Kind == lexer.Punct && assignOps[t.Lit] {
		if !isAssignTarget(e) {
			p.fail(t.Pos, "invalid assignment target")
		}
		p.next()
		v := p.assignExpr()
		return &ast.Assign{Op: t.Lit, Target: e, Value: v, P: t.Pos}
	}
	return e
}

func isAssignTarget(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.Member, *ast.Index:
		return true
	}
	return false
}

func (p *parser) condExpr() ast.Expr {
	e := p.binaryExpr(0)
	if p.atPunct("?") {
		t := p.next()
		cons := p.assignExpr()
		p.expect(lexer.Punct, ":")
		alt := p.assignExpr()
		return &ast.Cond{Test: e, Cons: cons, Alt: alt, P: t.Pos}
	}
	return e
}

// binary operator precedence table; higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binaryExpr(minPrec int) ast.Expr {
	e := p.unaryExpr()
	for {
		t := p.cur()
		op := t.Lit
		isBin := (t.Kind == lexer.Punct || (t.Kind == lexer.Keyword && (op == "in" || op == "instanceof")))
		prec, known := binPrec[op]
		if !isBin || !known || prec <= minPrec {
			return e
		}
		p.next()
		r := p.binaryExpr(prec)
		if op == "&&" || op == "||" {
			e = &ast.Logical{Op: op, L: e, R: r, P: t.Pos}
		} else {
			e = &ast.Binary{Op: op, L: e, R: r, P: t.Pos}
		}
	}
}

func (p *parser) unaryExpr() ast.Expr {
	p.enter()
	defer p.leave()
	t := p.cur()
	switch {
	case p.atPunct("!") || p.atPunct("-") || p.atPunct("+") || p.atPunct("~"):
		p.next()
		x := p.unaryExpr()
		return &ast.Unary{Op: t.Lit, X: x, P: t.Pos}
	case p.atKeyword("typeof") || p.atKeyword("delete"):
		p.next()
		x := p.unaryExpr()
		return &ast.Unary{Op: t.Lit, X: x, P: t.Pos}
	case p.atPunct("++") || p.atPunct("--"):
		p.next()
		x := p.unaryExpr()
		if !isAssignTarget(x) {
			p.fail(t.Pos, "invalid %s target", t.Lit)
		}
		return &ast.Update{Op: t.Lit, X: x, Prefix: true, P: t.Pos}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() ast.Expr {
	e := p.callMemberExpr(p.primaryExpr())
	t := p.cur()
	if p.atPunct("++") || p.atPunct("--") {
		if !isAssignTarget(e) {
			p.fail(t.Pos, "invalid %s target", t.Lit)
		}
		p.next()
		return &ast.Update{Op: t.Lit, X: e, Prefix: false, P: t.Pos}
	}
	return e
}

// callMemberExpr parses the chain of .prop, [index] and (args) suffixes.
func (p *parser) callMemberExpr(e ast.Expr) ast.Expr {
	for {
		t := p.cur()
		switch {
		case p.atPunct("."):
			p.next()
			name := p.propertyName()
			e = &ast.Member{Obj: e, Prop: name, P: t.Pos}
		case p.atPunct("["):
			p.next()
			idx := p.expression()
			p.expect(lexer.Punct, "]")
			e = &ast.Index{Obj: e, Index: idx, P: t.Pos}
		case p.atPunct("("):
			args := p.arguments()
			e = &ast.Call{Callee: e, Args: args, P: t.Pos}
		default:
			return e
		}
	}
}

// propertyName allows keywords as property names after a dot (obj.in etc.).
func (p *parser) propertyName() string {
	t := p.cur()
	if t.Kind == lexer.Ident || t.Kind == lexer.Keyword {
		p.next()
		return t.Lit
	}
	p.fail(t.Pos, "expected property name, found %s", t)
	return ""
}

func (p *parser) arguments() []ast.Expr {
	p.expect(lexer.Punct, "(")
	var args []ast.Expr
	for !p.atPunct(")") {
		args = append(args, p.assignExpr())
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, ")")
	return args
}

func (p *parser) primaryExpr() ast.Expr {
	// new-expressions recurse here directly (new new f), bypassing
	// unaryExpr, so primary expressions count nesting as well.
	p.enter()
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == lexer.Number:
		p.next()
		return &ast.NumberLit{Value: t.Num, P: t.Pos}
	case t.Kind == lexer.String:
		p.next()
		return &ast.StringLit{Value: t.Str, P: t.Pos}
	case p.atKeyword("true"):
		p.next()
		return &ast.BoolLit{Value: true, P: t.Pos}
	case p.atKeyword("false"):
		p.next()
		return &ast.BoolLit{Value: false, P: t.Pos}
	case p.atKeyword("null"):
		p.next()
		return &ast.NullLit{P: t.Pos}
	case p.atKeyword("this"):
		p.next()
		return &ast.ThisExpr{P: t.Pos}
	case p.atKeyword("function"):
		return p.functionLit(false)
	case p.atKeyword("new"):
		p.next()
		// Parse the callee without consuming call parentheses, then the
		// constructor arguments.
		callee := p.newCallee(p.primaryExpr())
		var args []ast.Expr
		if p.atPunct("(") {
			args = p.arguments()
		}
		return &ast.New{Callee: callee, Args: args, P: t.Pos}
	case t.Kind == lexer.Ident:
		p.next()
		if t.Lit == "undefined" {
			return &ast.UndefinedLit{P: t.Pos}
		}
		return &ast.Ident{Name: t.Lit, P: t.Pos}
	case p.atPunct("("):
		p.next()
		e := p.expression()
		p.expect(lexer.Punct, ")")
		return e
	case p.atPunct("{"):
		return p.objectLit()
	case p.atPunct("["):
		return p.arrayLit()
	}
	p.fail(t.Pos, "unexpected %s", t)
	return nil
}

// newCallee parses member suffixes for a new-expression callee but stops at
// call parentheses, which belong to the constructor invocation.
func (p *parser) newCallee(e ast.Expr) ast.Expr {
	for {
		t := p.cur()
		switch {
		case p.atPunct("."):
			p.next()
			e = &ast.Member{Obj: e, Prop: p.propertyName(), P: t.Pos}
		case p.atPunct("["):
			p.next()
			idx := p.expression()
			p.expect(lexer.Punct, "]")
			e = &ast.Index{Obj: e, Index: idx, P: t.Pos}
		default:
			return e
		}
	}
}

func (p *parser) objectLit() ast.Expr {
	t := p.expect(lexer.Punct, "{")
	o := &ast.ObjectLit{P: t.Pos}
	for !p.atPunct("}") {
		kt := p.cur()
		var key string
		switch {
		case kt.Kind == lexer.Ident || kt.Kind == lexer.Keyword:
			key = kt.Lit
			p.next()
		case kt.Kind == lexer.String:
			key = kt.Str
			p.next()
		case kt.Kind == lexer.Number:
			key = ast.FormatNumber(kt.Num)
			p.next()
		default:
			p.fail(kt.Pos, "expected property key, found %s", kt)
		}
		p.expect(lexer.Punct, ":")
		v := p.assignExpr()
		o.Props = append(o.Props, ast.Property{Key: key, Value: v})
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, "}")
	return o
}

func (p *parser) arrayLit() ast.Expr {
	t := p.expect(lexer.Punct, "[")
	a := &ast.ArrayLit{P: t.Pos}
	for !p.atPunct("]") {
		a.Elems = append(a.Elems, p.assignExpr())
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, "]")
	return a
}
