package core

import (
	"fmt"
	"strconv"
	"strings"

	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

type nativeFn = func(an *Analysis, this Value, args []Value) (Value, error)

// setupRuntime builds the instrumented prototypes and global object, then
// installs interp.Builtins in the order the concrete interpreter does.
// Every native is its own determinacy model (§4): core applies the entry's
// declared policy generically, or runs its hand-written model.
func (a *Analysis) setupRuntime() {
	var objs [interp.NumSlots]*DObj
	for k := interp.SlotObjectProto; k < interp.SlotGlobal; k++ {
		objs[k] = &DObj{Class: "Object", ProtoDet: true, Data: protoMarker}
		if k != interp.SlotObjectProto {
			objs[k].Proto = objs[interp.SlotObjectProto]
		}
	}
	a.ObjectProto, a.FunctionProto, a.ArrayProto, a.StringProto = objs[0], objs[1], objs[2], objs[3]
	a.NumberProto, a.BooleanProto, a.ErrorProto = objs[4], objs[5], objs[6]
	a.Global = a.NewObj("Object", a.ObjectProto)
	objs[interp.SlotGlobal] = a.Global

	for i := range interp.Builtins {
		b := &interp.Builtins[i]
		owner, slot, ref := b.Slots()
		var v Value
		switch {
		case b.Fn != nil:
			v = ObjV(a.NewNativeObj(b.Name, natives[i]), true)
			v.O.Native.IsEval = b.IsEval()
		case ref >= 0:
			v = ObjV(objs[ref], true)
		case b.Ref != "":
			v = ObjV(a.NewPlainObj(), true)
		default:
			v = annotate(b.Val, true)
		}
		if slot >= 0 {
			objs[slot] = v.O
		}
		a.setOwn(objs[owner], b.Name, v)
	}
}

// natives holds, for each interp.Builtins entry, what core installs: the
// entry's policy applied generically, or its model.
var natives = bindNatives()

func bindNatives() []nativeFn {
	fns := make([]nativeFn, len(interp.Builtins))
	modeled := 0
	for i := range interp.Builtins {
		b := &interp.Builtins[i]
		switch {
		case b.Fn == nil:
		case b.Policy == interp.Pure:
			fns[i] = func(an *Analysis, this Value, args []Value) (Value, error) { return an.callPure(b, this, args) }
		case b.Policy == interp.Source:
			fns[i] = func(an *Analysis, _ Value, args []Value) (Value, error) { return an.callSource(b, args) }
		case b.Policy == interp.Console:
			fns[i] = consoleModel
		default:
			if fns[i] = models[b.Path()]; fns[i] == nil {
				panic("core: no model for built-in " + b.Path())
			}
			modeled++
		}
	}
	if modeled != len(models) {
		panic("core: a model names no modeled built-in")
	}
	return fns
}

// callPure applies the Pure policy: the receiver (for prototype methods)
// and the operands go through toPrimitive, carrying determinacy, and the
// shared kernel runs on the primitives.
func (a *Analysis) callPure(b *interp.Builtin, this Value, args []Value) (Value, error) {
	recv, det := interp.UndefinedVal, true
	if b.IsMethod() {
		recv, det = a.operand(this)
	}
	ops, opsDet := a.takeOperands(args)
	v, err := b.Fn(nil, recv, ops)
	a.operands = ops[:0]
	return annotate(v, det && opsDet), err
}

// callSource applies the Source policy: the kernel reads the analysis's
// sources and its result, imported, is indeterminate.
func (a *Analysis) callSource(b *interp.Builtin, args []Value) (Value, error) {
	ops, _ := a.takeOperands(args)
	v, err := b.Fn(a, interp.UndefinedVal, ops)
	a.operands = ops[:0]
	return fromConcrete(a, v), err
}

// consoleModel applies the Console policy: output is an external effect,
// but suppressing it during counterfactual execution makes it safe to run
// without aborting.
func consoleModel(an *Analysis, _ Value, args []Value) (Value, error) {
	if !an.InCounterfactual() {
		parts := make([]string, len(args))
		for i, v := range args {
			parts[i] = an.ToDisplay(v)
		}
		fmt.Fprintln(an.opts.Out, strings.Join(parts, " "))
	}
	return UndefD, nil
}

// operand converts v for a shared kernel: primitives pass through, objects
// go through toPrimitive (plain objects as "[object Object]"). The flag is
// the conversion's determinacy.
func (a *Analysis) operand(v Value) (interp.Value, bool) {
	if v.Kind != Object {
		return prim(v), v.Det
	}
	p, det := a.toPrimitive(v)
	if p.Kind == Object {
		return interp.StringVal("[object Object]"), det
	}
	return prim(p), det
}

// takeOperands converts args into the analysis's operand buffer and folds
// their determinacy. The caller hands the buffer back (a.operands =
// ops[:0]) once the kernel returns; kernels that see it never call back,
// and a nested take while it is out simply allocates.
func (a *Analysis) takeOperands(args []Value) ([]interp.Value, bool) {
	ops, det := a.operands[:0], true
	a.operands = nil
	for _, v := range args {
		p, d := a.operand(v)
		ops = append(ops, p)
		det = det && d
	}
	return ops, det
}

// annotate lifts a primitive kernel result to an annotated value.
func annotate(v interp.Value, det bool) Value {
	return Value{Kind: v.Kind, B: v.B, N: v.N, S: v.S, Det: det}
}

// fromConcrete imports a concrete input value as an indeterminate
// instrumented value (program inputs are indeterminate by definition, §2.1).
func fromConcrete(a *Analysis, v interp.Value) Value {
	if v.Kind != interp.Object {
		return annotate(v, false)
	}
	// Structured inputs are imported as fresh indeterminate objects.
	o := a.NewPlainObj()
	for _, k := range v.O.OwnKeys() {
		pv, _ := v.O.Get(k)
		a.setOwn(o, k, fromConcrete(a, pv))
	}
	o.forcedOpen = true
	return ObjV(o, false)
}

// Now returns the configured Date.now value. With Random and Input it
// makes the analysis an interp.Host, so Source kernels read its sources.
func (a *Analysis) Now() float64 { return a.opts.Now }

// Input returns the configured __input value for name (undefined if unset).
func (a *Analysis) Input(name string) interp.Value { return a.opts.Inputs[name] }

func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return UndefD
}

func (a *Analysis) throwN(name, msg string, det bool) error {
	return &Thrown{Val: ObjV(a.NewErrorObj(name, msg, det), det)}
}

func (a *Analysis) lengthDet(o *DObj) bool {
	lp, ok := o.props["length"]
	return ok && a.propDet(lp)
}

// models are the hand-written determinacy models of the Modeled built-ins,
// by qualified name: natives that walk the heap, allocate or call back.
var models = map[string]nativeFn{
	"Object": func(an *Analysis, _ Value, args []Value) (Value, error) {
		if v := argAt(args, 0); v.Kind == Object {
			return v, nil
		}
		return ObjV(an.NewPlainObj(), true), nil
	},
	"Object.keys": func(an *Analysis, _ Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		if v.Kind != Object {
			return Value{}, an.throwN("TypeError", "Object.keys requires an object", v.Det)
		}
		det := v.Det && !an.IsOpen(v.O)
		var elems []Value
		for _, k := range v.O.OwnKeys() {
			p := v.O.props[k]
			if p.presence != present {
				det = false
				if p.presence == phantom {
					continue
				}
			}
			if v.O.Class == "Array" && k == "length" {
				continue
			}
			elems = append(elems, StringV(k, det))
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	},
	"Object.getPrototypeOf": func(_ *Analysis, _ Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		if v.Kind != Object || v.O.Proto == nil {
			return Value{Kind: Null, Det: v.Det}, nil
		}
		return ObjV(v.O.Proto, v.Det && v.O.ProtoDet), nil
	},
	"Object.create": func(an *Analysis, _ Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		var proto *DObj
		if v.Kind == Object {
			proto = v.O
		}
		o := an.NewObj("Object", proto)
		o.ProtoDet = v.Det
		return ObjV(o, true), nil
	},
	"Object.prototype.hasOwnProperty": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return BoolV(false, this.Det), nil
		}
		name, nameDet := an.toString(argAt(args, 0))
		present, presDet := an.hasOwnConcrete(this.O, name)
		return BoolV(present, this.Det && nameDet && presDet), nil
	},

	"Function": func(an *Analysis, _ Value, _ []Value) (Value, error) {
		return Value{}, an.throwN("TypeError", "the Function constructor is not supported; use eval", true)
	},
	"Function.prototype.call": func(an *Analysis, this Value, args []Value) (Value, error) {
		rest := args
		if len(rest) > 0 {
			rest = rest[1:]
		}
		return an.CallFunction(this, argAt(args, 0), rest)
	},
	"Function.prototype.apply": func(an *Analysis, this Value, args []Value) (Value, error) {
		var rest []Value
		if v := argAt(args, 1); v.Kind == Object {
			arrDet := v.Det && !an.IsOpen(v.O)
			n := an.arrayLength(v.O)
			for k := 0; k < n; k++ {
				el, _ := an.getOwn(v.O, strconv.Itoa(k))
				rest = append(rest, el.WithDet(arrDet))
			}
		}
		return an.CallFunction(this, argAt(args, 0), rest)
	},

	"Array": func(an *Analysis, _ Value, args []Value) (Value, error) {
		if len(args) == 1 && args[0].Kind == Number {
			arr := an.NewArrayObj(nil)
			an.setOwn(arr, "length", args[0])
			return ObjV(arr, true), nil
		}
		return ObjV(an.NewArrayObj(args), true), nil
	},
	"Array.isArray": func(_ *Analysis, _ Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		return BoolV(v.Kind == Object && v.O.Class == "Array", v.Det), nil
	},
	"Array.prototype.push": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		det := this.Det && an.lengthDet(this.O)
		n := an.arrayLength(this.O)
		for _, v := range args {
			an.setOwn(this.O, strconv.Itoa(n), v.WithDet(det))
			n++
		}
		an.setOwn(this.O, "length", NumberV(float64(n), det))
		return NumberV(float64(n), det), nil
	},
	"Array.prototype.pop": func(an *Analysis, this Value, _ []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		det := this.Det && an.lengthDet(this.O)
		n := an.arrayLength(this.O)
		if n == 0 {
			return Value{Kind: Undefined, Det: det}, nil
		}
		v, _ := an.getOwn(this.O, strconv.Itoa(n-1))
		an.deleteProp(this.O, strconv.Itoa(n-1))
		an.setOwn(this.O, "length", NumberV(float64(n-1), det))
		return v.WithDet(det), nil
	},
	"Array.prototype.join": func(an *Analysis, this Value, args []Value) (Value, error) {
		sep, sepDet := ",", true
		if v := argAt(args, 0); v.Kind != Undefined {
			sep, sepDet = an.toString(v)
		}
		if this.Kind != Object {
			return StringV("", this.Det), nil
		}
		s, det := an.join(this.O, sep, this.Det && sepDet && an.lengthDet(this.O) && !an.IsOpen(this.O))
		return StringV(s, det), nil
	},
	"Array.prototype.indexOf": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return NumberV(-1, this.Det), nil
		}
		target := argAt(args, 0)
		det := this.Det && an.lengthDet(this.O) && !an.IsOpen(this.O) && target.Det
		n := an.arrayLength(this.O)
		for k := 0; k < n; k++ {
			el, ok := an.getOwn(this.O, strconv.Itoa(k))
			if ok {
				det = det && el.Det
			}
			if strictEquals(el, target) {
				return NumberV(float64(k), det), nil
			}
		}
		return NumberV(-1, det), nil
	},
	"Array.prototype.slice": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return ObjV(an.NewArrayObj(nil), true), nil
		}
		ops, det := an.takeOperands(args)
		start, end := interp.SliceRange(ops, an.arrayLength(this.O))
		an.operands = ops[:0]
		det = det && this.Det && an.lengthDet(this.O)
		var elems []Value
		for k := start; k < end; k++ {
			el, _ := an.getOwn(this.O, strconv.Itoa(k))
			elems = append(elems, el.WithDet(det))
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	},
	"Array.prototype.concat": func(an *Analysis, this Value, args []Value) (Value, error) {
		var elems []Value
		det := true
		for _, v := range append([]Value{this}, args...) {
			det = det && v.Det
			if v.Kind == Object && v.O.Class == "Array" {
				det = det && !an.IsOpen(v.O) && an.lengthDet(v.O)
				n := an.arrayLength(v.O)
				for k := 0; k < n; k++ {
					el, _ := an.getOwn(v.O, strconv.Itoa(k))
					elems = append(elems, el)
				}
			} else {
				elems = append(elems, v)
			}
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	},
	"Array.prototype.forEach": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		cb := argAt(args, 0)
		n := an.arrayLength(this.O)
		for k := 0; k < n; k++ {
			el, _ := an.getOwn(this.O, strconv.Itoa(k))
			if _, err := an.CallFunction(cb, UndefD, []Value{el, NumberV(float64(k), an.lengthDet(this.O)), this}); err != nil {
				return UndefD, err
			}
		}
		return UndefD, nil
	},
	"Array.prototype.map": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return ObjV(an.NewArrayObj(nil), true), nil
		}
		cb := argAt(args, 0)
		det := this.Det && an.lengthDet(this.O) && cb.Det
		n := an.arrayLength(this.O)
		elems := make([]Value, 0, n)
		for k := 0; k < n; k++ {
			el, _ := an.getOwn(this.O, strconv.Itoa(k))
			v, err := an.CallFunction(cb, UndefD, []Value{el, NumberV(float64(k), det), this})
			if err != nil {
				return UndefD, err
			}
			elems = append(elems, v)
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	},
	"Array.prototype.filter": func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return ObjV(an.NewArrayObj(nil), true), nil
		}
		cb := argAt(args, 0)
		det := this.Det && an.lengthDet(this.O) && cb.Det
		n := an.arrayLength(this.O)
		var elems []Value
		for k := 0; k < n; k++ {
			el, _ := an.getOwn(this.O, strconv.Itoa(k))
			v, err := an.CallFunction(cb, UndefD, []Value{el, NumberV(float64(k), det), this})
			if err != nil {
				return UndefD, err
			}
			det = det && v.Det
			if an.toBool(v) {
				elems = append(elems, el)
			}
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	},
	"Array.prototype.shift": func(an *Analysis, this Value, _ []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		det := this.Det && an.lengthDet(this.O)
		n := an.arrayLength(this.O)
		if n == 0 {
			return Value{Kind: Undefined, Det: det}, nil
		}
		first, _ := an.getOwn(this.O, "0")
		for k := 1; k < n; k++ {
			if v, ok := an.getOwn(this.O, strconv.Itoa(k)); ok {
				an.setOwn(this.O, strconv.Itoa(k-1), v)
			} else {
				an.deleteProp(this.O, strconv.Itoa(k-1))
			}
		}
		an.deleteProp(this.O, strconv.Itoa(n-1))
		an.setOwn(this.O, "length", NumberV(float64(n-1), det))
		return first.WithDet(det), nil
	},

	"String.prototype.split": func(an *Analysis, this Value, args []Value) (Value, error) {
		s, det := an.toString(this)
		ops, opsDet := an.takeOperands(args)
		parts := interp.SplitParts(s, ops)
		an.operands = ops[:0]
		det = det && opsDet
		elems := make([]Value, len(parts))
		for k, part := range parts {
			elems[k] = StringV(part, det)
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	},
	"Boolean": func(an *Analysis, _ Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		return BoolV(an.toBool(v), v.Det), nil
	},
	"Error":          errorModel("Error"),
	"TypeError":      errorModel("TypeError"),
	"ReferenceError": errorModel("ReferenceError"),
	"RangeError":     errorModel("RangeError"),
	"SyntaxError":    errorModel("SyntaxError"),
	// Indirect eval evaluates in the global scope; direct eval is handled
	// at call sites by execEval.
	"eval": indirectEval,
	"Date": func(an *Analysis, _ Value, _ []Value) (Value, error) {
		o := an.NewPlainObj()
		an.setOwn(o, "__time", NumberV(an.opts.Now, false))
		return ObjV(o, true), nil
	},
	"__observe": func(*Analysis, Value, []Value) (Value, error) { return UndefD, nil },
}

func errorModel(name string) nativeFn {
	return func(an *Analysis, _ Value, args []Value) (Value, error) {
		msg, det := an.operand(argAt(args, 0))
		return ObjV(an.NewErrorObj(name, interp.ErrorMessage(msg), det), true), nil
	}
}

func indirectEval(an *Analysis, _ Value, args []Value) (Value, error) {
	argv := argAt(args, 0)
	if argv.Kind != String {
		return argv, nil
	}
	fn, err := ir.LowerEval(an.Mod, argv.S, an.Mod.Top())
	if err != nil {
		return Value{}, &Thrown{Val: an.throwError("SyntaxError", err.Error(), true).val}
	}
	var bf *branchFrame
	if !argv.Det {
		bf = an.pushBranch(false)
	}
	topEnv := an.newEnv(nil, an.Mod.Top())
	env := an.newEnv(topEnv, fn)
	nf := &DFrame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: -1}
	if len(an.frames) > 0 {
		parent := an.frames[len(an.frames)-1]
		nf.Ctx = parent.Ctx
		nf.ctxUnstable = parent.ctxUnstable
	}
	an.frames = append(an.frames, nf)
	out := an.execBlock(nf, fn.Body)
	an.frames = an.frames[:len(an.frames)-1]
	if bf != nil {
		an.popBranch(bf)
		an.markIndeterminate(bf)
		an.releaseBranch(bf)
		an.flushAll("eval-indet")
	}
	switch out.kind {
	case oReturn, oNormal:
		return out.val.WithDet(argv.Det), nil
	case oThrow:
		return Value{}, &Thrown{Val: out.val.WithDet(argv.Det)}
	case oCFAbort:
		return Value{}, errCFAbort
	default:
		return Value{}, out.err
	}
}
