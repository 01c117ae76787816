// Package ir defines the µJS-style intermediate representation executed by
// both the concrete interpreter (internal/interp) and the instrumented
// determinacy interpreter (internal/core).
//
// The paper's implementation section (§4) states that programs are "first
// translated into a form similar to µJS with a small number of additional
// statement forms"; this package is that translation. The IR is three-address
// straight-line code plus *structured* control flow (If/While/ForIn/Try),
// which the instrumented semantics relies on to delimit branches for
// counterfactual execution and post-branch indeterminacy marking (Figure 9).
//
// Every instruction carries a unique ID, its unique program point. Determinacy
// facts are qualified by an instruction ID plus a call stack of call-site
// instruction IDs, mirroring the paper's ⟦e⟧ c notation.
package ir

import (
	"determinacy/internal/ast"
	"determinacy/internal/lexer"
)

// Reg is a function-local virtual register (temporary). Registers are
// assigned single static values per instruction execution; they are never
// captured by closures.
type Reg int

// NoReg marks an absent register operand (e.g. a call without a receiver).
const NoReg Reg = -1

// ID is a unique program point identifier for an instruction.
type ID int

// LitKind classifies a constant operand.
type LitKind int

// Literal kinds.
const (
	LitUndefined LitKind = iota
	LitNull
	LitBool
	LitNumber
	LitString
)

// Literal is a constant operand of a Const instruction.
type Literal struct {
	Kind LitKind
	Bool bool
	Num  float64
	Str  string
}

// VarRef names a resolved local variable: Hops lexical scopes out, slot
// Slot. Name is retained for diagnostics and fact rendering.
type VarRef struct {
	Hops int
	Slot int
	Name string
}

// Instr is implemented by all IR instructions.
type Instr interface {
	IID() ID
	IPos() lexer.Pos
}

// instrBase carries the program point and source position of an instruction.
type instrBase struct {
	ID  ID
	Pos lexer.Pos
}

func (b instrBase) IID() ID         { return b.ID }
func (b instrBase) IPos() lexer.Pos { return b.Pos }

// Block is a sequence of instructions.
type Block struct {
	Instrs []Instr
}

// ---------------------------------------------------------------------------
// Straight-line instructions

// Const loads a literal into Dst.
type Const struct {
	instrBase
	Dst Reg
	Val Literal
}

// Move copies Src into Dst.
type Move struct {
	instrBase
	Dst, Src Reg
}

// LoadVar reads a local variable into Dst.
type LoadVar struct {
	instrBase
	Dst Reg
	Var VarRef
}

// StoreVar writes Src into a local variable.
type StoreVar struct {
	instrBase
	Var VarRef
	Src Reg
}

// LoadGlobal reads a global (a property of the global object) into Dst.
// If the global is not defined, execution throws a ReferenceError unless
// ForTypeof is set, in which case Dst receives undefined.
type LoadGlobal struct {
	instrBase
	Dst       Reg
	Name      string
	ForTypeof bool
}

// StoreGlobal writes Src into a global.
type StoreGlobal struct {
	instrBase
	Name string
	Src  Reg
}

// MakeClosure creates a function object closing over the current
// environment.
type MakeClosure struct {
	instrBase
	Dst Reg
	Fn  *Function
}

// Prop is one key-value entry of a MakeObject.
type Prop struct {
	Key string
	Val Reg
}

// MakeObject creates an object literal.
type MakeObject struct {
	instrBase
	Dst   Reg
	Props []Prop
}

// MakeArray creates an array literal.
type MakeArray struct {
	instrBase
	Dst   Reg
	Elems []Reg
}

// GetField reads a statically named property, following the prototype chain.
type GetField struct {
	instrBase
	Dst  Reg
	Obj  Reg
	Name string
}

// GetProp reads a computed property, following the prototype chain.
type GetProp struct {
	instrBase
	Dst  Reg
	Obj  Reg
	Prop Reg
}

// SetField writes a statically named own property.
type SetField struct {
	instrBase
	Obj  Reg
	Name string
	Src  Reg
}

// SetProp writes a computed own property.
type SetProp struct {
	instrBase
	Obj  Reg
	Prop Reg
	Src  Reg
}

// DelField deletes a statically named own property; Dst receives a boolean.
type DelField struct {
	instrBase
	Dst  Reg
	Obj  Reg
	Name string
}

// DelProp deletes a computed own property; Dst receives a boolean.
type DelProp struct {
	instrBase
	Dst  Reg
	Obj  Reg
	Prop Reg
}

// BinOp applies a strict binary operator. Op is one of the mini-JS binary
// operators including "in" and "instanceof"; && and || are lowered to If.
type BinOp struct {
	instrBase
	Dst  Reg
	Op   string
	L, R Reg
}

// UnOp applies a unary operator: ! - + ~ typeof.
type UnOp struct {
	instrBase
	Dst Reg
	Op  string
	X   Reg
}

// Call invokes Fn with receiver This (NoReg for plain calls) and Args.
// The instruction ID doubles as the call-site identifier in fact stacks.
type Call struct {
	instrBase
	Dst  Reg
	Fn   Reg
	This Reg
	Args []Reg
}

// New invokes Fn as a constructor.
type New struct {
	instrBase
	Dst  Reg
	Fn   Reg
	Args []Reg
}

// ---------------------------------------------------------------------------
// Control flow

// If branches on Cond. Else may be nil.
type If struct {
	instrBase
	Cond Reg
	Then *Block
	Else *Block
}

// While evaluates CondBlock, tests Cond, and runs Body while true. Update
// (when non-nil) runs after the body and on continue, before re-testing;
// it carries the update clause of C-style for loops. PostTest marks
// do-while loops: the body runs once before the first condition test.
type While struct {
	instrBase
	CondBlock *Block
	Cond      Reg
	Body      *Block
	Update    *Block
	PostTest  bool
}

// ForIn iterates over the enumerable own-and-inherited property names of the
// object in Obj, assigning each to Target (or TargetGlobal when Global).
type ForIn struct {
	instrBase
	Obj          Reg
	Global       bool
	Target       VarRef
	TargetGlobal string
	Body         *Block
}

// Return exits the current function. Src may be NoReg (returns undefined).
type Return struct {
	instrBase
	Src Reg
}

// Throw raises the value in Src.
type Throw struct {
	instrBase
	Src Reg
}

// Break exits the innermost loop.
type Break struct{ instrBase }

// Continue restarts the innermost loop.
type Continue struct{ instrBase }

// Try runs Body; on a throw, binds the value to CatchVar (or the global
// named GlobalCatch for top-level catches) and runs Catch (when present);
// Finally (when present) always runs.
type Try struct {
	instrBase
	Body        *Block
	HasCatch    bool
	CatchVar    VarRef
	GlobalCatch string
	Catch       *Block
	Finally     *Block
}

// ---------------------------------------------------------------------------
// Functions and modules

// Function is a lowered mini-JS function. Funcs[0] of a Module is the
// synthetic top-level function whose body is the program.
type Function struct {
	Index    int
	Name     string
	Params   []string
	NumSlots int
	NumRegs  int
	// SlotNames maps slot index to variable name (params first).
	SlotNames []string
	// ThisSlot is the slot holding the receiver, or -1 (top level).
	ThisSlot int
	// SelfSlot binds a named function expression to itself, or -1.
	SelfSlot int
	Body     *Block
	Parent   *Function // lexically enclosing function; nil for top level
	Pos      lexer.Pos
	// Decl is the originating AST node (nil for the top level and for
	// runtime-lowered eval code); the specializer uses it to map facts back
	// to source.
	Decl *ast.FunctionLit
	// IsEval marks functions lowered at runtime from eval arguments.
	IsEval bool
}

// Module is a lowered program. A module returned by Lower is frozen:
// nothing writes to it afterwards, so one module can back any number of
// runs at once. A run executes a layer (see Layer), which sees the frozen
// module plus the code LowerEval lowers into it at run time.
type Module struct {
	File   string
	Source string
	// NumInstrs is one more than the largest instruction ID allocated,
	// including instructions in runtime-lowered eval code.
	NumInstrs int

	// base is the frozen module a layer extends (nil for a module from
	// Lower); first is the first instruction ID this module allocated.
	base  *Module
	first int
	// funcs are the functions lowered into this module, in Index order.
	funcs []*Function
	// instrs is indexed by ID-first; an ID allocated by a lowering that
	// then failed may hold the zero instrInfo.
	instrs []instrInfo
	// evals memoizes LowerEval by caller and source, so repeated eval of
	// the same string reuses program points (keeping determinacy facts
	// stable across loop iterations).
	evals map[evalKey]*Function
}

// instrInfo is what a module records about one instruction.
type instrInfo struct {
	in Instr
	fn *Function // the enclosing function
	// reentrant marks instructions lexically inside a loop of their own
	// function: they may execute more than once per activation, so their
	// occurrence indices are only stable while the loop structure is
	// determinate. The determinacy analysis consults this to decide whether
	// occurrence-qualified facts are sound (see internal/core).
	reentrant bool
}

type evalKey struct {
	caller int
	src    string
}

// Layer returns a fresh run layer over m: a module that answers for m's
// functions and instructions and receives the code LowerEval lowers at run
// time, numbered after m's. It copies nothing from m. A layer of a layer
// extends the same frozen module, so runtime-lowered code stays private to
// the run that lowered it.
func (m *Module) Layer() *Module {
	if m.base != nil {
		m = m.base
	}
	return &Module{File: m.File, Source: m.Source, NumInstrs: m.NumInstrs, base: m, first: m.NumInstrs,
		evals: map[evalKey]*Function{}}
}

// info returns what the module that allocated id recorded about it.
func (m *Module) info(id ID) instrInfo {
	if m.base != nil && int(id) < m.first {
		return m.base.info(id)
	}
	if i := int(id) - m.first; i >= 0 && i < len(m.instrs) {
		return m.instrs[i]
	}
	return instrInfo{}
}

// IsReentrant reports whether the instruction may execute multiple times
// within one activation of its function (it sits inside a loop).
func (m *Module) IsReentrant(id ID) bool { return m.info(id).reentrant }

// InstrAt returns the instruction with the given ID, or nil.
func (m *Module) InstrAt(id ID) Instr { return m.info(id).in }

// FuncOf returns the function containing the instruction with the given ID,
// or nil.
func (m *Module) FuncOf(id ID) *Function { return m.info(id).fn }

// ForEachInstr visits every registered instruction with its enclosing
// function, in ID order.
func (m *Module) ForEachInstr(f func(Instr, *Function)) {
	if m.base != nil {
		m.base.ForEachInstr(f)
	}
	for _, e := range m.instrs {
		if e.in != nil {
			f(e.in, e.fn)
		}
	}
}

// Funcs returns every function, indexed by Function.Index: a layer's
// follow its base's. The caller must not modify the slice.
func (m *Module) Funcs() []*Function {
	own := m.funcs[:len(m.funcs):len(m.funcs)]
	if m.base == nil {
		return own
	}
	return append(m.base.Funcs(), own...)
}

// Top returns the synthetic top-level function.
func (m *Module) Top() *Function {
	if m.base != nil {
		m = m.base
	}
	return m.funcs[0]
}

// addFunc appends fn to the module, numbering it.
func (m *Module) addFunc(fn *Function) {
	fn.Index = len(m.funcs)
	if m.base != nil {
		fn.Index += len(m.base.funcs)
	}
	m.funcs = append(m.funcs, fn)
}

// register adds an instruction to the lookup index.
func (m *Module) register(in Instr, fn *Function, reentrant bool) {
	i := int(in.IID()) - m.first
	for len(m.instrs) <= i {
		m.instrs = append(m.instrs, instrInfo{})
	}
	e := &m.instrs[i]
	e.in, e.fn, e.reentrant = in, fn, e.reentrant || reentrant
}

// WritesOf returns the names of local variables that may be written by
// instructions in the block, recursing into nested control flow but not into
// function literals. This implements vd(s) from §3.1, used by the
// counterfactual-abort rule (CNTRABORT).
func WritesOf(b *Block) []VarRef {
	seen := map[string]bool{}
	var out []VarRef
	var walk func(*Block)
	walk = func(b *Block) {
		if b == nil {
			return
		}
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *StoreVar:
				k := varKey(in.Var)
				if !seen[k] {
					seen[k] = true
					out = append(out, in.Var)
				}
			case *ForIn:
				if !in.Global {
					k := varKey(in.Target)
					if !seen[k] {
						seen[k] = true
						out = append(out, in.Target)
					}
				}
				walk(in.Body)
			case *If:
				walk(in.Then)
				walk(in.Else)
			case *While:
				walk(in.CondBlock)
				walk(in.Body)
			case *Try:
				walk(in.Body)
				walk(in.Catch)
				walk(in.Finally)
			}
		}
	}
	walk(b)
	return out
}

func varKey(v VarRef) string {
	return string(rune(v.Hops)) + ":" + string(rune(v.Slot)) + ":" + v.Name
}
