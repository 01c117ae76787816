package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/ir"
)

// ErrBudget is returned when execution exceeds the configured step budget.
var ErrBudget = errors.New("interp: step budget exhausted")

// ErrStack is returned when the call stack exceeds the configured limit.
var ErrStack = errors.New("interp: call stack overflow")

// Options configures an interpreter.
type Options struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps int
	// MaxDepth bounds the call stack depth (0 = default 1000).
	MaxDepth int
	// Out receives console output; nil discards it.
	Out io.Writer
	// Seed initializes the deterministic PRNG behind Math.random.
	Seed uint64
	// Now is the fixed value returned by Date.now().
	Now float64
	// Inputs backs the __input(name) native, the generic indeterminate
	// program-input source used by tests and workloads.
	Inputs map[string]Value
	// Ctx, when non-nil, is polled every interruptEvery steps; once done
	// the run aborts with guard.ErrDeadline for a deadline, else the
	// wrapped cancellation cause.
	Ctx context.Context
}

// Interp executes an IR module under the concrete semantics.
type Interp struct {
	Mod    *ir.Module // the run's layer over New's module (see ir.Module.Layer)
	Global *Obj

	// Prototype objects of the built-in classes. User code can extend them
	// (e.g. String.prototype.cap in the paper's Figure 3).
	ObjectProto   *Obj
	FunctionProto *Obj
	ArrayProto    *Obj
	StringProto   *Obj
	NumberProto   *Obj
	BooleanProto  *Obj
	ErrorProto    *Obj

	// AfterInstr, when set, observes every register-defining instruction
	// together with the value it produced. The soundness differential test
	// uses it to check determinacy facts against concrete executions.
	AfterInstr func(in ir.Instr, val Value)
	// OnEnterFrame and OnLeaveFrame, when set, observe user-function and
	// eval activations. site is the call-site instruction ID (-1 for calls
	// from native code or embedding APIs).
	OnEnterFrame func(site ir.ID)
	OnLeaveFrame func()

	opts   Options
	steps  int
	nalloc int
	frames []*Frame
	rng    Rand
	// stopped makes interrupts sticky so natives that re-enter execution
	// (CallFunction from embedders) cannot outrun a cancellation.
	stopped error
	// curIn is the instruction currently executing, for panic diagnostics.
	curIn ir.Instr
}

// Frame is one activation record.
type Frame struct {
	Fn       *ir.Function
	Env      *Env
	Regs     []Value
	CallSite ir.ID // instruction ID of the call site; -1 for the top level
}

// New creates an interpreter for mod and installs the standard library.
func New(mod *ir.Module, opts Options) *Interp {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 1000
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	it := &Interp{
		Mod:  mod.Layer(),
		opts: opts,
		rng:  NewRand(opts.Seed),
	}
	it.setupRuntime()
	return it
}

// Steps reports how many instructions have been executed.
func (it *Interp) Steps() int { return it.steps }

// interruptEvery is the step interval between cooperative interrupt polls;
// a power of two so the hot-loop check is a mask.
const interruptEvery = 2048

// checkpoint polls the run's context and any armed fault-injection plan,
// making a hit sticky via it.stopped.
func (it *Interp) checkpoint() {
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteInterpStep)
	}
	if it.stopped == nil {
		if err := guard.CheckInterrupt(it.opts.Ctx); err != nil {
			it.stopped = err
		}
	}
}

// CurrentPoint reports the instruction currently executing, for panic
// diagnostics: its ID and "line:col" position, or (-1, "") outside
// execution.
func (it *Interp) CurrentPoint() (int, string) {
	if it.curIn == nil {
		return -1, ""
	}
	p := it.curIn.IPos()
	return int(it.curIn.IID()), fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// NewObject allocates a plain object with the given prototype (nil for a
// prototype-less object).
func (it *Interp) NewObject(proto *Obj) *Obj {
	it.nalloc++
	return &Obj{Class: "Object", Proto: proto, Alloc: it.nalloc}
}

// NewPlain allocates an object inheriting from Object.prototype.
func (it *Interp) NewPlain() *Obj { return it.NewObject(it.ObjectProto) }

// NewArray allocates an array with the given elements.
func (it *Interp) NewArray(elems []Value) *Obj {
	it.nalloc++
	a := &Obj{Class: "Array", Proto: it.ArrayProto, Alloc: it.nalloc}
	a.setRaw("length", NumberVal(float64(len(elems))))
	for i, e := range elems {
		a.setRaw(fmt.Sprint(i), e)
	}
	return a
}

// NewNative wraps a Go function as a callable object.
func (it *Interp) NewNative(name string, fn NativeFunc) *Obj {
	it.nalloc++
	return &Obj{Class: "Function", Proto: it.FunctionProto, Native: &Native{Name: name, Fn: fn}, Alloc: it.nalloc}
}

// NewClosure creates a function object for fn closing over env.
func (it *Interp) NewClosure(fn *ir.Function, env *Env) *Obj {
	it.nalloc++
	c := &Obj{Class: "Function", Proto: it.FunctionProto, Fn: fn, Env: env, Alloc: it.nalloc}
	proto := it.NewPlain()
	proto.Set("constructor", ObjVal(c))
	c.Set("prototype", ObjVal(proto))
	c.Set("length", NumberVal(float64(len(fn.Params))))
	return c
}

// NewError creates an error object of the given name.
func (it *Interp) NewError(name, msg string) *Obj {
	it.nalloc++
	e := &Obj{Class: "Error", Proto: it.ErrorProto, Alloc: it.nalloc}
	e.Set("name", StringVal(name))
	e.Set("message", StringVal(msg))
	return e
}

// Random returns the next value of the deterministic PRNG (xorshift64*).
func (it *Interp) Random() float64 { return it.rng.Float64() }

// Rand is the xorshift64* PRNG behind Math.random. Both interpreters seed
// it alike, so a seed names one sequence.
type Rand uint64

// NewRand seeds a generator.
func NewRand(seed uint64) Rand { return Rand(seed*2862933555777941757 + 3037000493) }

// Float64 steps the generator and returns a number in [0, 1).
func (r *Rand) Float64() float64 {
	*r ^= *r >> 12
	*r ^= *r << 25
	*r ^= *r >> 27
	return float64((*r*2685821657736338717)>>11) / float64(1<<53)
}

// Input returns the configured input value for name (the zero Value,
// undefined, if unset).
func (it *Interp) Input(name string) Value { return it.opts.Inputs[name] }

// Now returns the configured Date.now value.
func (it *Interp) Now() float64 { return it.opts.Now }

// Out returns the console output writer.
func (it *Interp) Out() io.Writer { return it.opts.Out }

// ---------------------------------------------------------------------------
// Outcomes

type outKind int

const (
	oNormal outKind = iota
	oReturn
	oBreak
	oContinue
	oThrow
	oFail
)

type outcome struct {
	kind outKind
	val  Value
	err  error
}

var okOutcome = outcome{kind: oNormal}

func failed(err error) outcome { return outcome{kind: oFail, err: err} }

func (it *Interp) throwError(name, msg string) outcome {
	return outcome{kind: oThrow, val: ObjVal(it.NewError(name, msg))}
}

// Run executes the module top level. It returns the value of the last
// top-level expression... the top level has no value, so Run returns
// undefined on success, the thrown value error on an uncaught exception, or
// a budget/stack error. It is a guard boundary: a panic anywhere in the
// interpreter returns as a structured *guard.RunError instead of crashing
// the caller.
func (it *Interp) Run() (v Value, err error) {
	defer guard.Boundary(&err, "interp", it.CurrentPoint)
	top := it.Mod.Top()
	f := &Frame{
		Fn:       top,
		Env:      &Env{Slots: make([]Value, top.NumSlots), Fn: top},
		Regs:     make([]Value, top.NumRegs),
		CallSite: -1,
	}
	it.frames = append(it.frames, f)
	defer func() { it.frames = it.frames[:len(it.frames)-1] }()
	// Poll once before executing anything (without counting an injector
	// hit): a context that is already dead must stop even a program too
	// short to reach a step checkpoint.
	if it.stopped == nil {
		if ierr := guard.CheckInterrupt(it.opts.Ctx); ierr != nil {
			it.stopped = ierr
		}
	}
	out := it.execBlock(f, top.Body)
	switch out.kind {
	case oNormal, oReturn:
		return out.val, nil
	case oThrow:
		return out.val, &Thrown{Val: out.val}
	case oFail:
		return UndefinedVal, out.err
	default:
		return UndefinedVal, fmt.Errorf("interp: abrupt completion %d escaped top level", out.kind)
	}
}

// CallFunction invokes a function value from native code or embedding APIs.
func (it *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	out := it.callValue(fn, this, args, -1)
	switch out.kind {
	case oThrow:
		return out.val, &Thrown{Val: out.val}
	case oFail:
		return UndefinedVal, out.err
	default:
		return out.val, nil
	}
}

// ---------------------------------------------------------------------------
// Execution

func (it *Interp) execBlock(f *Frame, b *ir.Block) outcome {
	for _, in := range b.Instrs {
		it.steps++
		if it.steps > it.opts.MaxSteps {
			return failed(ErrBudget)
		}
		if it.steps&(interruptEvery-1) == 0 {
			it.checkpoint()
		}
		if it.stopped != nil {
			return failed(it.stopped)
		}
		it.curIn = in
		out := it.execInstr(f, in)
		if out.kind != oNormal {
			return out
		}
	}
	return okOutcome
}

func (it *Interp) observe(in ir.Instr, v Value) {
	if it.AfterInstr != nil {
		it.AfterInstr(in, v)
	}
}

func (it *Interp) execInstr(f *Frame, in ir.Instr) outcome {
	switch in := in.(type) {
	case *ir.Const:
		v := LitValue(in.Val)
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.Move:
		f.Regs[in.Dst] = f.Regs[in.Src]
		it.observe(in, f.Regs[in.Dst])
	case *ir.LoadVar:
		f.Regs[in.Dst] = f.Env.At(in.Var.Hops, in.Var.Slot)
		it.observe(in, f.Regs[in.Dst])
	case *ir.StoreVar:
		f.Env.SetAt(in.Var.Hops, in.Var.Slot, f.Regs[in.Src])
	case *ir.LoadGlobal:
		v, ok := it.Global.Get(in.Name)
		if !ok {
			if in.ForTypeof {
				v = UndefinedVal
			} else {
				return it.throwError("ReferenceError", in.Name+" is not defined")
			}
		}
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.StoreGlobal:
		it.Global.Set(in.Name, f.Regs[in.Src])
	case *ir.MakeClosure:
		v := ObjVal(it.NewClosure(in.Fn, f.Env))
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.MakeObject:
		o := it.NewPlain()
		for _, p := range in.Props {
			o.Set(p.Key, f.Regs[p.Val])
		}
		f.Regs[in.Dst] = ObjVal(o)
		it.observe(in, f.Regs[in.Dst])
	case *ir.MakeArray:
		elems := make([]Value, len(in.Elems))
		for i, r := range in.Elems {
			elems[i] = f.Regs[r]
		}
		f.Regs[in.Dst] = ObjVal(it.NewArray(elems))
		it.observe(in, f.Regs[in.Dst])
	case *ir.GetField:
		v, out := it.getProp(f.Regs[in.Obj], in.Name)
		if out.kind != oNormal {
			return out
		}
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.GetProp:
		name := ToString(f.Regs[in.Prop])
		v, out := it.getProp(f.Regs[in.Obj], name)
		if out.kind != oNormal {
			return out
		}
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.SetField:
		if out := it.setProp(f.Regs[in.Obj], in.Name, f.Regs[in.Src]); out.kind != oNormal {
			return out
		}
	case *ir.SetProp:
		name := ToString(f.Regs[in.Prop])
		if out := it.setProp(f.Regs[in.Obj], name, f.Regs[in.Src]); out.kind != oNormal {
			return out
		}
	case *ir.DelField:
		v, out := it.delProp(f.Regs[in.Obj], in.Name)
		if out.kind != oNormal {
			return out
		}
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.DelProp:
		v, out := it.delProp(f.Regs[in.Obj], ToString(f.Regs[in.Prop]))
		if out.kind != oNormal {
			return out
		}
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.BinOp:
		v, out := it.binOp(in.Op, f.Regs[in.L], f.Regs[in.R])
		if out.kind != oNormal {
			return out
		}
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.UnOp:
		v := UnOp(in.Op, f.Regs[in.X])
		f.Regs[in.Dst] = v
		it.observe(in, v)
	case *ir.Call:
		return it.execCall(f, in)
	case *ir.New:
		return it.execNew(f, in)
	case *ir.If:
		if ToBool(f.Regs[in.Cond]) {
			return it.execBlock(f, in.Then)
		}
		if in.Else != nil {
			return it.execBlock(f, in.Else)
		}
	case *ir.While:
		return it.execWhile(f, in)
	case *ir.ForIn:
		return it.execForIn(f, in)
	case *ir.Return:
		v := UndefinedVal
		if in.Src != ir.NoReg {
			v = f.Regs[in.Src]
		}
		return outcome{kind: oReturn, val: v}
	case *ir.Throw:
		return outcome{kind: oThrow, val: f.Regs[in.Src]}
	case *ir.Break:
		return outcome{kind: oBreak}
	case *ir.Continue:
		return outcome{kind: oContinue}
	case *ir.Try:
		return it.execTry(f, in)
	default:
		return failed(fmt.Errorf("interp: unknown instruction %T", in))
	}
	return okOutcome
}

// LitValue converts an IR literal to a value.
func LitValue(l ir.Literal) Value {
	switch l.Kind {
	case ir.LitUndefined:
		return UndefinedVal
	case ir.LitNull:
		return NullVal
	case ir.LitBool:
		return BoolVal(l.Bool)
	case ir.LitNumber:
		return NumberVal(l.Num)
	case ir.LitString:
		return StringVal(l.Str)
	}
	return UndefinedVal
}

func (it *Interp) execWhile(f *Frame, in *ir.While) outcome {
	first := true
	for {
		if !in.PostTest || !first {
			if out := it.execBlock(f, in.CondBlock); out.kind != oNormal {
				return out
			}
			if !ToBool(f.Regs[in.Cond]) {
				return okOutcome
			}
		}
		first = false
		out := it.execBlock(f, in.Body)
		switch out.kind {
		case oBreak:
			return okOutcome
		case oNormal, oContinue:
			if in.Update != nil {
				if uout := it.execBlock(f, in.Update); uout.kind != oNormal {
					return uout
				}
			}
		default:
			return out
		}
	}
}

func (it *Interp) execForIn(f *Frame, in *ir.ForIn) outcome {
	obj := f.Regs[in.Obj]
	if obj.Kind != Object {
		return okOutcome // for-in over primitives is a no-op in mini-JS
	}
	names := enumKeys(obj.O)
	for _, name := range names {
		// Skip properties deleted during iteration, as JS does.
		if !obj.O.Has(name) {
			continue
		}
		nv := StringVal(name)
		if in.Global {
			it.Global.Set(in.TargetGlobal, nv)
		} else {
			f.Env.SetAt(in.Target.Hops, in.Target.Slot, nv)
		}
		out := it.execBlock(f, in.Body)
		switch out.kind {
		case oBreak:
			return okOutcome
		case oNormal, oContinue:
		default:
			return out
		}
	}
	return okOutcome
}

// enumKeys returns the for-in key sequence: own keys in insertion order,
// then prototype keys not shadowed. The "length" property of arrays and
// "prototype" of functions are not enumerable.
func enumKeys(o *Obj) []string {
	var out []string
	seen := map[string]bool{}
	for cur := o; cur != nil; cur = cur.Proto {
		for _, k := range cur.keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if cur.Class == "Array" && k == "length" {
				continue
			}
			if cur.Class == "Function" && (k == "prototype" || k == "length") {
				continue
			}
			// Properties of the built-in prototypes are non-enumerable.
			if cur != o && cur.Data == protoMarker {
				continue
			}
			out = append(out, k)
		}
	}
	return out
}

// protoMarker tags built-in prototype objects whose properties are hidden
// from for-in, approximating non-enumerable built-ins.
var protoMarker = new(int)

func (it *Interp) execTry(f *Frame, in *ir.Try) outcome {
	out := it.execBlock(f, in.Body)
	if out.kind == oThrow && in.HasCatch {
		if in.GlobalCatch != "" {
			it.Global.Set(in.GlobalCatch, out.val)
		} else {
			f.Env.SetAt(in.CatchVar.Hops, in.CatchVar.Slot, out.val)
		}
		out = it.execBlock(f, in.Catch)
	}
	if in.Finally != nil {
		fout := it.execBlock(f, in.Finally)
		if fout.kind != oNormal {
			return fout // an abrupt finally completion wins
		}
	}
	return out
}

func (it *Interp) execCall(f *Frame, in *ir.Call) outcome {
	fnv := f.Regs[in.Fn]
	// Direct eval.
	if fnv.Kind == Object && fnv.O.Native != nil && fnv.O.Native.IsEval {
		return it.execEval(f, in)
	}
	this := UndefinedVal
	if in.This != ir.NoReg {
		this = f.Regs[in.This]
	}
	args := make([]Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = f.Regs[r]
	}
	out := it.callValue(fnv, this, args, in.ID)
	if out.kind != oNormal {
		return out
	}
	f.Regs[in.Dst] = out.val
	it.observe(in, out.val)
	return okOutcome
}

// callValue performs the function-call protocol shared by Call, New and
// native callbacks. A normal outcome carries the return value.
func (it *Interp) callValue(fnv Value, this Value, args []Value, site ir.ID) outcome {
	if !fnv.IsCallable() {
		return it.throwError("TypeError", ToDisplay(fnv)+" is not a function")
	}
	if len(it.frames) >= it.opts.MaxDepth {
		return failed(ErrStack)
	}
	o := fnv.O
	if o.Native != nil {
		v, err := o.Native.Fn(it, this, args)
		if err != nil {
			var th *Thrown
			if errors.As(err, &th) {
				return outcome{kind: oThrow, val: th.Val}
			}
			return failed(err)
		}
		return outcome{kind: oNormal, val: v}
	}

	fn := o.Fn
	env := &Env{Parent: o.Env, Slots: make([]Value, fn.NumSlots), Fn: fn}
	if fn.SelfSlot >= 0 {
		env.Slots[fn.SelfSlot] = fnv
	}
	for i, p := range fn.Params {
		var av Value
		if i < len(args) {
			av = args[i]
		}
		// Params are the first slots, but use the name to be safe with
		// duplicate parameter names.
		_ = p
		env.Slots[slotOf(fn, i)] = av
	}
	if fn.ThisSlot >= 0 {
		if this.Kind == Undefined || this.Kind == Null {
			this = ObjVal(it.Global) // non-strict default receiver
		}
		env.Slots[fn.ThisSlot] = this
	}
	nf := &Frame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: site}
	it.pushFrame(nf)
	out := it.execBlock(nf, fn.Body)
	it.popFrame()
	switch out.kind {
	case oNormal:
		return outcome{kind: oNormal, val: UndefinedVal}
	case oReturn:
		return outcome{kind: oNormal, val: out.val}
	case oBreak, oContinue:
		return failed(fmt.Errorf("interp: %v escaped function body", out.kind))
	default:
		return out
	}
}

// slotOf maps parameter index i to its slot. Parameters occupy the first
// slots in declaration order, after an optional self-binding slot.
func slotOf(fn *ir.Function, i int) int {
	name := fn.Params[i]
	for s, n := range fn.SlotNames {
		if n == name {
			return s
		}
	}
	return i
}

func (it *Interp) execNew(f *Frame, in *ir.New) outcome {
	fnv := f.Regs[in.Fn]
	if !fnv.IsCallable() {
		return it.throwError("TypeError", ToDisplay(fnv)+" is not a constructor")
	}
	proto := it.ObjectProto
	if pv, ok := fnv.O.Get("prototype"); ok && pv.Kind == Object {
		proto = pv.O
	}
	obj := it.NewObject(proto)
	args := make([]Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = f.Regs[r]
	}
	out := it.callValue(fnv, ObjVal(obj), args, in.ID)
	if out.kind != oNormal {
		return out
	}
	res := ObjVal(obj)
	if out.val.Kind == Object {
		res = out.val
	}
	f.Regs[in.Dst] = res
	it.observe(in, res)
	return okOutcome
}

// execEval implements direct eval: the argument is parsed and lowered at
// runtime against the caller's static scope chain, then run in an
// environment chained to the caller's.
func (it *Interp) execEval(f *Frame, in *ir.Call) outcome {
	var arg Value
	if len(in.Args) > 0 {
		arg = f.Regs[in.Args[0]]
	}
	if arg.Kind != String {
		f.Regs[in.Dst] = arg
		it.observe(in, arg)
		return okOutcome
	}
	fn, err := ir.LowerEval(it.Mod, arg.S, f.Fn)
	if err != nil {
		return it.throwError("SyntaxError", err.Error())
	}
	env := &Env{Parent: f.Env, Slots: make([]Value, fn.NumSlots), Fn: fn}
	nf := &Frame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: in.ID}
	if len(it.frames) >= it.opts.MaxDepth {
		return failed(ErrStack)
	}
	it.pushFrame(nf)
	bout := it.execBlock(nf, fn.Body)
	it.popFrame()
	switch bout.kind {
	case oReturn:
		f.Regs[in.Dst] = bout.val
		it.observe(in, bout.val)
		return okOutcome
	case oNormal:
		f.Regs[in.Dst] = UndefinedVal
		it.observe(in, UndefinedVal)
		return okOutcome
	default:
		return bout
	}
}

func (it *Interp) pushFrame(f *Frame) {
	it.frames = append(it.frames, f)
	if it.OnEnterFrame != nil {
		it.OnEnterFrame(f.CallSite)
	}
}

func (it *Interp) popFrame() {
	it.frames = it.frames[:len(it.frames)-1]
	if it.OnLeaveFrame != nil {
		it.OnLeaveFrame()
	}
}

// ---------------------------------------------------------------------------
// Property access

func (it *Interp) getProp(base Value, name string) (Value, outcome) {
	switch base.Kind {
	case Object:
		if g, ok := base.O.findGetter(name); ok {
			v, err := g(it, base, nil)
			if err != nil {
				var th *Thrown
				if errors.As(err, &th) {
					return UndefinedVal, outcome{kind: oThrow, val: th.Val}
				}
				return UndefinedVal, failed(err)
			}
			return v, okOutcome
		}
		v, _ := base.O.Lookup(name)
		return v, okOutcome
	case String:
		if name == "length" {
			return NumberVal(float64(len(base.S))), okOutcome
		}
		if idx, ok := ArrayIndex(name); ok {
			if idx < len(base.S) {
				return StringVal(string(base.S[idx])), okOutcome
			}
			return UndefinedVal, okOutcome
		}
		v, _ := it.StringProto.Lookup(name)
		return v, okOutcome
	case Number:
		v, _ := it.NumberProto.Lookup(name)
		return v, okOutcome
	case Bool:
		v, _ := it.BooleanProto.Lookup(name)
		return v, okOutcome
	default:
		return UndefinedVal, it.throwError("TypeError",
			fmt.Sprintf("cannot read property %q of %s", name, base.Kind))
	}
}

func (it *Interp) setProp(base Value, name string, v Value) outcome {
	switch base.Kind {
	case Object:
		if s, ok := base.O.findSetter(name); ok {
			if _, err := s(it, base, []Value{v}); err != nil {
				var th *Thrown
				if errors.As(err, &th) {
					return outcome{kind: oThrow, val: th.Val}
				}
				return failed(err)
			}
			return okOutcome
		}
		base.O.Set(name, v)
		return okOutcome
	case String, Number, Bool:
		return okOutcome // silently ignored, as in non-strict JS
	default:
		return it.throwError("TypeError",
			fmt.Sprintf("cannot set property %q of %s", name, base.Kind))
	}
}

func (it *Interp) delProp(base Value, name string) (Value, outcome) {
	switch base.Kind {
	case Object:
		base.O.Delete(name)
		fallthrough
	case String, Number, Bool:
		// Mini-JS has no non-configurable properties, so delete always
		// succeeds, whether or not the property existed.
		return TrueVal, okOutcome
	default:
		return UndefinedVal, it.throwError("TypeError",
			fmt.Sprintf("cannot delete property %q of %s", name, base.Kind))
	}
}

// ---------------------------------------------------------------------------
// Operators

func (it *Interp) binOp(op string, l, r Value) (Value, outcome) {
	if v, ok := BinOp(op, l, r); ok {
		return v, okOutcome
	}
	switch op {
	case "==":
		return BoolVal(LooseEquals(l, r)), okOutcome
	case "!=":
		return BoolVal(!LooseEquals(l, r)), okOutcome
	case "===":
		return BoolVal(StrictEquals(l, r)), okOutcome
	case "!==":
		return BoolVal(!StrictEquals(l, r)), okOutcome
	case "||#":
		// Non-short-circuit boolean or, emitted by switch lowering.
		return BoolVal(ToBool(l) || ToBool(r)), okOutcome
	case "in":
		if r.Kind != Object {
			return UndefinedVal, it.throwError("TypeError", "'in' requires an object")
		}
		return BoolVal(r.O.Has(ToString(l))), okOutcome
	case "instanceof":
		if !r.IsCallable() {
			return UndefinedVal, it.throwError("TypeError", "right-hand side of instanceof is not callable")
		}
		pv, ok := r.O.Get("prototype")
		if !ok || pv.Kind != Object {
			return FalseVal, okOutcome
		}
		if l.Kind != Object {
			return FalseVal, okOutcome
		}
		for cur := l.O.Proto; cur != nil; cur = cur.Proto {
			if cur == pv.O {
				return TrueVal, okOutcome
			}
		}
		return FalseVal, okOutcome
	default:
		return UndefinedVal, failed(fmt.Errorf("interp: unknown binary operator %q", op))
	}
}

func compare(op string, l, r Value) Value {
	lp, rp := primitive(l), primitive(r)
	if lp.Kind == String && rp.Kind == String {
		switch op {
		case "<":
			return BoolVal(lp.S < rp.S)
		case ">":
			return BoolVal(lp.S > rp.S)
		case "<=":
			return BoolVal(lp.S <= rp.S)
		default:
			return BoolVal(lp.S >= rp.S)
		}
	}
	ln, rn := ToNumber(lp), ToNumber(rp)
	if math.IsNaN(ln) || math.IsNaN(rn) {
		return FalseVal
	}
	switch op {
	case "<":
		return BoolVal(ln < rn)
	case ">":
		return BoolVal(ln > rn)
	case "<=":
		return BoolVal(ln <= rn)
	default:
		return BoolVal(ln >= rn)
	}
}

// UnOp applies a unary operator. The instrumented interpreter shares it
// for the numeric operators, passing an operand converted to a primitive.
func UnOp(op string, x Value) Value {
	switch op {
	case "!":
		return BoolVal(!ToBool(x))
	case "-":
		return NumberVal(-ToNumber(x))
	case "+":
		return NumberVal(ToNumber(x))
	case "~":
		return NumberVal(float64(^ToInt32(x)))
	case "typeof":
		return StringVal(TypeOf(x))
	default:
		return UndefinedVal
	}
}

// BinOp applies a binary operator whose operands convert to primitives:
// arithmetic, bitwise, + and relational. ok is false for the rest, which
// inspect objects. The instrumented interpreter shares it, passing
// operands it has already converted.
func BinOp(op string, l, r Value) (v Value, ok bool) {
	switch op {
	case "<", ">", "<=", ">=":
		return compare(op, l, r), true
	case "+":
		lp, rp := primitive(l), primitive(r)
		if lp.Kind == String || rp.Kind == String {
			return StringVal(ToString(lp) + ToString(rp)), true
		}
		return NumberVal(ToNumber(lp) + ToNumber(rp)), true
	case "-":
		return NumberVal(ToNumber(l) - ToNumber(r)), true
	case "*":
		return NumberVal(ToNumber(l) * ToNumber(r)), true
	case "/":
		return NumberVal(ToNumber(l) / ToNumber(r)), true
	case "%":
		return NumberVal(math.Mod(ToNumber(l), ToNumber(r))), true
	case "&":
		return NumberVal(float64(ToInt32(l) & ToInt32(r))), true
	case "|":
		return NumberVal(float64(ToInt32(l) | ToInt32(r))), true
	case "^":
		return NumberVal(float64(ToInt32(l) ^ ToInt32(r))), true
	case "<<":
		return NumberVal(float64(ToInt32(l) << (ToUint32(r) & 31))), true
	case ">>":
		return NumberVal(float64(ToInt32(l) >> (ToUint32(r) & 31))), true
	case ">>>":
		return NumberVal(float64(ToUint32(l) >> (ToUint32(r) & 31))), true
	}
	return UndefinedVal, false
}

// primitive is the operand conversion of the + and relational operators:
// toPrimitive, with plain objects as "[object Object]".
func primitive(v Value) Value {
	if v.Kind != Object {
		return v // kept apart from objectPrimitive so this case inlines
	}
	return objectPrimitive(v)
}

func objectPrimitive(v Value) Value {
	if p := toPrimitive(v); p.Kind != Object {
		return p
	}
	return StringVal("[object Object]")
}

// FormatArgs renders console.log arguments.
func FormatArgs(args []Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = ToDisplay(a)
	}
	return strings.Join(parts, " ")
}
