package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"determinacy/internal/interp"
)

// cfPureNatives lists natives known side-effect free, used only when
// Options.AbortCFOnNativeWrite mimics the paper's implementation (which had
// to abort counterfactuals at any native that might write).
var cfPureNatives = map[string]bool{
	"abs": true, "floor": true, "ceil": true, "sqrt": true, "sin": true,
	"cos": true, "log": true, "exp": true, "round": true, "pow": true,
	"min": true, "max": true, "random": true,
	"charAt": true, "charCodeAt": true, "indexOf": true, "lastIndexOf": true,
	"toUpperCase": true, "toLowerCase": true, "trim": true, "substring": true,
	"substr": true, "slice": true, "replace": true, "concat": true,
	"toString": true, "toFixed": true, "fromCharCode": true,
	"parseInt": true, "parseFloat": true, "isNaN": true, "isFinite": true,
	"hasOwnProperty": true, "isArray": true, "now": true, "__input": true,
}

// setupRuntime builds the instrumented global object and standard library.
// Every native is its own determinacy model (§4): most are pure over their
// inputs, a few (Math.random, Date.now, __input) are indeterminate sources,
// and console-style natives have external effects.
func (a *Analysis) setupRuntime() {
	a.ObjectProto = &DObj{Class: "Object", ProtoDet: true, Data: protoMarker}
	protoOf := func() *DObj {
		return &DObj{Class: "Object", Proto: a.ObjectProto, ProtoDet: true, Data: protoMarker}
	}
	a.FunctionProto = protoOf()
	a.ArrayProto = protoOf()
	a.StringProto = protoOf()
	a.NumberProto = protoOf()
	a.BooleanProto = protoOf()
	a.ErrorProto = protoOf()

	g := a.NewObj("Object", a.ObjectProto)
	a.Global = g
	a.setOwn(g, "globalThis", ObjV(g, true))
	a.setOwn(g, "undefined", UndefD)
	a.setOwn(g, "NaN", NumberV(math.NaN(), true))
	a.setOwn(g, "Infinity", NumberV(math.Inf(1), true))

	a.setupConsoleD(g)
	a.setupMathD(g)
	a.setupObjectD(g)
	a.setupFunctionD(g)
	a.setupArrayD(g)
	a.setupStringD(g)
	a.setupNumberBooleanD(g)
	a.setupErrorsD(g)
	a.setupTopLevelD(g)
}

func (a *Analysis) defN(o *DObj, name string, external bool, fn func(*Analysis, Value, []Value) (Value, error)) {
	nat := a.NewNativeObj(name, fn)
	nat.Native.External = external
	a.setOwn(o, name, ObjV(nat, true))
}

func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return UndefD
}

// foldDet is the default determinacy model for pure natives: the result is
// determinate iff the receiver and all arguments are.
func foldDet(this Value, args []Value) bool {
	det := this.Det
	for _, a := range args {
		det = det && a.Det
	}
	return det
}

func (a *Analysis) throwN(name, msg string, det bool) error {
	return &Thrown{Val: ObjV(a.NewErrorObj(name, msg, det), det)}
}

// ---------------------------------------------------------------------------

func (a *Analysis) setupConsoleD(g *DObj) {
	console := a.NewPlainObj()
	log := func(an *Analysis, this Value, args []Value) (Value, error) {
		if !an.InCounterfactual() {
			parts := make([]string, len(args))
			for i, v := range args {
				parts[i] = an.ToDisplay(v)
			}
			fmt.Fprintln(an.opts.Out, strings.Join(parts, " "))
		}
		return UndefD, nil
	}
	// Console output is an external effect, but suppression during
	// counterfactual execution makes it safe to model without aborting.
	a.defN(console, "log", false, log)
	a.defN(console, "warn", false, log)
	a.defN(console, "error", false, log)
	a.defN(console, "info", false, log)
	a.setOwn(g, "console", ObjV(console, true))
	a.defN(g, "alert", false, log)
	a.defN(g, "print", false, log)
}

func (a *Analysis) setupMathD(g *DObj) {
	m := a.NewPlainObj()
	num1 := func(f func(float64) float64) func(*Analysis, Value, []Value) (Value, error) {
		return func(an *Analysis, this Value, args []Value) (Value, error) {
			x := argAt(args, 0)
			return NumberV(f(an.toNumber(x)), x.Det), nil
		}
	}
	a.defN(m, "abs", false, num1(math.Abs))
	a.defN(m, "floor", false, num1(math.Floor))
	a.defN(m, "ceil", false, num1(math.Ceil))
	a.defN(m, "sqrt", false, num1(math.Sqrt))
	a.defN(m, "sin", false, num1(math.Sin))
	a.defN(m, "cos", false, num1(math.Cos))
	a.defN(m, "log", false, num1(math.Log))
	a.defN(m, "exp", false, num1(math.Exp))
	a.defN(m, "round", false, num1(func(x float64) float64 { return math.Floor(x + 0.5) }))
	a.defN(m, "pow", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		x, y := argAt(args, 0), argAt(args, 1)
		return NumberV(math.Pow(an.toNumber(x), an.toNumber(y)), x.Det && y.Det), nil
	})
	minmax := func(init float64, pick func(a, b float64) float64) func(*Analysis, Value, []Value) (Value, error) {
		return func(an *Analysis, this Value, args []Value) (Value, error) {
			r, det := init, true
			for _, v := range args {
				det = det && v.Det
				n := an.toNumber(v)
				if math.IsNaN(n) {
					return NumberV(math.NaN(), det), nil
				}
				r = pick(r, n)
			}
			return NumberV(r, det), nil
		}
	}
	a.defN(m, "min", false, minmax(math.Inf(1), math.Min))
	a.defN(m, "max", false, minmax(math.Inf(-1), math.Max))
	// Math.random is the canonical indeterminate source (§2.1).
	a.defN(m, "random", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		return NumberV(an.Random(), false), nil
	})
	a.setOwn(m, "PI", NumberV(math.Pi, true))
	a.setOwn(m, "E", NumberV(math.E, true))
	a.setOwn(g, "Math", ObjV(m, true))
}

func (a *Analysis) setupObjectD(g *DObj) {
	ctor := a.NewNativeObj("Object", func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		if v.Kind == Object {
			return v, nil
		}
		return ObjV(an.NewPlainObj(), true), nil
	})
	a.setOwn(ctor, "prototype", ObjV(a.ObjectProto, true))
	a.defN(ctor, "keys", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		if v.Kind != Object {
			return Value{}, an.throwN("TypeError", "Object.keys requires an object", v.Det)
		}
		det := v.Det && !an.IsOpen(v.O)
		var elems []Value
		for _, k := range v.O.OwnKeys() {
			p := v.O.props[k]
			if p.phantom {
				det = false
				continue
			}
			if p.maybeAbsent {
				det = false
			}
			if v.O.Class == "Array" && k == "length" {
				continue
			}
			elems = append(elems, StringV(k, det))
		}
		arr := an.NewArrayObj(elems)
		return ObjV(arr, det), nil
	})
	a.defN(ctor, "getPrototypeOf", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		if v.Kind != Object || v.O.Proto == nil {
			return Value{Kind: Null, Det: v.Det}, nil
		}
		return ObjV(v.O.Proto, v.Det && v.O.ProtoDet), nil
	})
	a.defN(ctor, "create", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		var proto *DObj
		if v.Kind == Object {
			proto = v.O
		}
		o := an.NewObj("Object", proto)
		o.ProtoDet = v.Det
		return ObjV(o, true), nil
	})
	a.setOwn(g, "Object", ObjV(ctor, true))

	a.defN(a.ObjectProto, "hasOwnProperty", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return BoolV(false, this.Det), nil
		}
		name, nameDet := an.toString(argAt(args, 0))
		present, presDet := an.hasOwnConcrete(this.O, name)
		return BoolV(present, this.Det && nameDet && presDet), nil
	})
	a.defN(a.ObjectProto, "toString", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		s, det := an.toString(this)
		return StringV(s, det && this.Det), nil
	})
}

func (a *Analysis) setupFunctionD(g *DObj) {
	ctor := a.NewNativeObj("Function", func(an *Analysis, this Value, args []Value) (Value, error) {
		return Value{}, an.throwN("TypeError", "the Function constructor is not supported; use eval", true)
	})
	a.setOwn(ctor, "prototype", ObjV(a.FunctionProto, true))
	a.setOwn(g, "Function", ObjV(ctor, true))

	a.defN(a.FunctionProto, "call", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		rest := args
		if len(rest) > 0 {
			rest = rest[1:]
		}
		return an.CallFunction(this, argAt(args, 0), rest)
	})
	a.defN(a.FunctionProto, "apply", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		var rest []Value
		arrDet := true
		if v := argAt(args, 1); v.Kind == Object {
			arrDet = v.Det && !an.IsOpen(v.O)
			n := an.arrayLength(v.O)
			for k := 0; k < n; k++ {
				el, _ := an.getOwn(v.O, strconv.Itoa(k))
				if !arrDet {
					el = el.Indet()
				}
				rest = append(rest, el)
			}
		}
		return an.CallFunction(this, argAt(args, 0), rest)
	})
}

func (a *Analysis) setupArrayD(g *DObj) {
	ctor := a.NewNativeObj("Array", func(an *Analysis, this Value, args []Value) (Value, error) {
		if len(args) == 1 && args[0].Kind == Number {
			arr := an.NewArrayObj(nil)
			an.setOwn(arr, "length", args[0])
			return ObjV(arr, true), nil
		}
		return ObjV(an.NewArrayObj(args), true), nil
	})
	a.setOwn(ctor, "prototype", ObjV(a.ArrayProto, true))
	a.defN(ctor, "isArray", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		return BoolV(v.Kind == Object && v.O.Class == "Array", v.Det), nil
	})
	a.setOwn(g, "Array", ObjV(ctor, true))

	p := a.ArrayProto
	lengthDet := func(an *Analysis, o *DObj) bool {
		lp, ok := o.props["length"]
		return ok && an.propDet(lp)
	}
	a.defN(p, "push", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		det := this.Det && lengthDet(an, this.O)
		n := an.arrayLength(this.O)
		for _, v := range args {
			an.setOwn(this.O, strconv.Itoa(n), v.WithDet(det))
			n++
		}
		an.setOwn(this.O, "length", NumberV(float64(n), det))
		return NumberV(float64(n), det), nil
	})
	a.defN(p, "pop", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		det := this.Det && lengthDet(an, this.O)
		n := an.arrayLength(this.O)
		if n == 0 {
			return Value{Kind: Undefined, Det: det}, nil
		}
		v, _ := an.getOwn(this.O, strconv.Itoa(n-1))
		an.deleteProp(this.O, strconv.Itoa(n-1))
		an.setOwn(this.O, "length", NumberV(float64(n-1), det))
		return v.WithDet(det), nil
	})
	a.defN(p, "join", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		sep, sepDet := ",", true
		if v := argAt(args, 0); v.Kind != Undefined {
			sep, sepDet = an.toString(v)
		}
		if this.Kind != Object {
			return StringV("", this.Det), nil
		}
		det := this.Det && sepDet && lengthDet(an, this.O) && !an.IsOpen(this.O)
		n := an.arrayLength(this.O)
		parts := make([]string, 0, n)
		for k := 0; k < n; k++ {
			el, ok := an.getOwn(this.O, strconv.Itoa(k))
			if ok {
				det = det && el.Det
			}
			if !ok || el.Kind == Undefined || el.Kind == Null {
				parts = append(parts, "")
				continue
			}
			s, sdet := an.toString(el)
			det = det && sdet
			parts = append(parts, s)
		}
		return StringV(strings.Join(parts, sep), det), nil
	})
	a.defN(p, "indexOf", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return NumberV(-1, this.Det), nil
		}
		det := this.Det && lengthDet(an, this.O) && !an.IsOpen(this.O) && argAt(args, 0).Det
		n := an.arrayLength(this.O)
		target := argAt(args, 0)
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
	})
	a.defN(p, "slice", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return ObjV(an.NewArrayObj(nil), true), nil
		}
		det := this.Det && lengthDet(an, this.O) && foldDet(UndefD, args)
		n := an.arrayLength(this.O)
		start, end := 0, n
		if v := argAt(args, 0); v.Kind != Undefined {
			start = clampIdx(int(an.toNumber(v)), n)
		}
		if v := argAt(args, 1); v.Kind != Undefined {
			end = clampIdx(int(an.toNumber(v)), n)
		}
		if end < start {
			end = start
		}
		var elems []Value
		for k := start; k < end; k++ {
			el, _ := an.getOwn(this.O, strconv.Itoa(k))
			elems = append(elems, el.WithDet(det))
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	})
	a.defN(p, "concat", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		var elems []Value
		det := true
		appendVal := func(v Value) {
			det = det && v.Det
			if v.Kind == Object && v.O.Class == "Array" {
				det = det && !an.IsOpen(v.O) && lengthDet(an, v.O)
				n := an.arrayLength(v.O)
				for k := 0; k < n; k++ {
					el, _ := an.getOwn(v.O, strconv.Itoa(k))
					elems = append(elems, el)
				}
			} else {
				elems = append(elems, v)
			}
		}
		appendVal(this)
		for _, v := range args {
			appendVal(v)
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	})
	a.defN(p, "forEach", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		cb := argAt(args, 0)
		n := an.arrayLength(this.O)
		for k := 0; k < n; k++ {
			el, _ := an.getOwn(this.O, strconv.Itoa(k))
			if _, err := an.CallFunction(cb, UndefD, []Value{el, NumberV(float64(k), lengthDet(an, this.O)), this}); err != nil {
				return UndefD, err
			}
		}
		return UndefD, nil
	})
	a.defN(p, "map", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return ObjV(an.NewArrayObj(nil), true), nil
		}
		cb := argAt(args, 0)
		det := this.Det && lengthDet(an, this.O) && cb.Det
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
	})
	a.defN(p, "filter", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return ObjV(an.NewArrayObj(nil), true), nil
		}
		cb := argAt(args, 0)
		det := this.Det && lengthDet(an, this.O) && cb.Det
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
	})
	a.defN(p, "shift", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefD, nil
		}
		det := this.Det && lengthDet(an, this.O)
		n := an.arrayLength(this.O)
		if n == 0 {
			return Value{Kind: Undefined, Det: det}, nil
		}
		first, _ := an.getOwn(this.O, "0")
		for k := 1; k < n; k++ {
			v, ok := an.getOwn(this.O, strconv.Itoa(k))
			if ok {
				an.setOwn(this.O, strconv.Itoa(k-1), v)
			} else {
				an.deleteProp(this.O, strconv.Itoa(k-1))
			}
		}
		an.deleteProp(this.O, strconv.Itoa(n-1))
		an.setOwn(this.O, "length", NumberV(float64(n-1), det))
		return first.WithDet(det), nil
	})
}

func clampIdx(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func (a *Analysis) setupStringD(g *DObj) {
	ctor := a.NewNativeObj("String", func(an *Analysis, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return StringV("", true), nil
		}
		s, det := an.toString(args[0])
		return StringV(s, det && args[0].Det), nil
	})
	a.setOwn(ctor, "prototype", ObjV(a.StringProto, true))
	a.defN(ctor, "fromCharCode", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		var b strings.Builder
		det := true
		for _, v := range args {
			det = det && v.Det
			b.WriteRune(rune(int(an.toNumber(v))))
		}
		return StringV(b.String(), det), nil
	})
	a.setOwn(g, "String", ObjV(ctor, true))

	p := a.StringProto
	// pure string natives: result determinate iff receiver and args are.
	pure := func(f func(s string, an *Analysis, args []Value) Value) func(*Analysis, Value, []Value) (Value, error) {
		return func(an *Analysis, this Value, args []Value) (Value, error) {
			s, sdet := an.toString(this)
			v := f(s, an, args)
			v.Det = sdet && this.Det && foldDet(UndefD, args)
			return v, nil
		}
	}
	a.defN(p, "charAt", false, pure(func(s string, an *Analysis, args []Value) Value {
		k := int(an.toNumber(argAt(args, 0)))
		if k < 0 || k >= len(s) {
			return StringV("", true)
		}
		return StringV(string(s[k]), true)
	}))
	a.defN(p, "charCodeAt", false, pure(func(s string, an *Analysis, args []Value) Value {
		k := int(an.toNumber(argAt(args, 0)))
		if k < 0 || k >= len(s) {
			return NumberV(math.NaN(), true)
		}
		return NumberV(float64(s[k]), true)
	}))
	a.defN(p, "indexOf", false, pure(func(s string, an *Analysis, args []Value) Value {
		sub, _ := an.toString(argAt(args, 0))
		return NumberV(float64(strings.Index(s, sub)), true)
	}))
	a.defN(p, "lastIndexOf", false, pure(func(s string, an *Analysis, args []Value) Value {
		sub, _ := an.toString(argAt(args, 0))
		return NumberV(float64(strings.LastIndex(s, sub)), true)
	}))
	a.defN(p, "toUpperCase", false, pure(func(s string, an *Analysis, args []Value) Value {
		return StringV(strings.ToUpper(s), true)
	}))
	a.defN(p, "toLowerCase", false, pure(func(s string, an *Analysis, args []Value) Value {
		return StringV(strings.ToLower(s), true)
	}))
	a.defN(p, "trim", false, pure(func(s string, an *Analysis, args []Value) Value {
		return StringV(strings.TrimSpace(s), true)
	}))
	a.defN(p, "substring", false, pure(func(s string, an *Analysis, args []Value) Value {
		x := clampIdx(int(an.toNumber(argAt(args, 0))), len(s))
		y := len(s)
		if v := argAt(args, 1); v.Kind != Undefined {
			y = clampIdx(int(an.toNumber(v)), len(s))
		}
		if x > y {
			x, y = y, x
		}
		return StringV(s[x:y], true)
	}))
	a.defN(p, "substr", false, pure(func(s string, an *Analysis, args []Value) Value {
		start := int(an.toNumber(argAt(args, 0)))
		if start < 0 {
			start += len(s)
			if start < 0 {
				start = 0
			}
		}
		if start > len(s) {
			return StringV("", true)
		}
		n := len(s) - start
		if v := argAt(args, 1); v.Kind != Undefined {
			n = int(an.toNumber(v))
		}
		if n < 0 {
			n = 0
		}
		if start+n > len(s) {
			n = len(s) - start
		}
		return StringV(s[start:start+n], true)
	}))
	a.defN(p, "slice", false, pure(func(s string, an *Analysis, args []Value) Value {
		x := 0
		if v := argAt(args, 0); v.Kind != Undefined {
			x = clampIdx(int(an.toNumber(v)), len(s))
		}
		y := len(s)
		if v := argAt(args, 1); v.Kind != Undefined {
			y = clampIdx(int(an.toNumber(v)), len(s))
		}
		if y < x {
			y = x
		}
		return StringV(s[x:y], true)
	}))
	a.defN(p, "split", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		s, sdet := an.toString(this)
		det := sdet && this.Det && foldDet(UndefD, args)
		sepv := argAt(args, 0)
		if sepv.Kind == Undefined {
			return ObjV(an.NewArrayObj([]Value{StringV(s, det)}), det), nil
		}
		sep, _ := an.toString(sepv)
		var parts []string
		if sep == "" {
			for _, c := range s {
				parts = append(parts, string(c))
			}
		} else {
			parts = strings.Split(s, sep)
		}
		elems := make([]Value, len(parts))
		for k, part := range parts {
			elems[k] = StringV(part, det)
		}
		return ObjV(an.NewArrayObj(elems), det), nil
	})
	a.defN(p, "replace", false, pure(func(s string, an *Analysis, args []Value) Value {
		pat, _ := an.toString(argAt(args, 0))
		rep, _ := an.toString(argAt(args, 1))
		return StringV(strings.Replace(s, pat, rep, 1), true)
	}))
	a.defN(p, "concat", false, pure(func(s string, an *Analysis, args []Value) Value {
		var b strings.Builder
		b.WriteString(s)
		for _, v := range args {
			part, _ := an.toString(v)
			b.WriteString(part)
		}
		return StringV(b.String(), true)
	}))
	a.defN(p, "toString", false, pure(func(s string, an *Analysis, args []Value) Value {
		return StringV(s, true)
	}))
}

func (a *Analysis) setupNumberBooleanD(g *DObj) {
	numCtor := a.NewNativeObj("Number", func(an *Analysis, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return NumberV(0, true), nil
		}
		return NumberV(an.toNumber(args[0]), args[0].Det), nil
	})
	a.setOwn(numCtor, "prototype", ObjV(a.NumberProto, true))
	a.setOwn(numCtor, "MAX_VALUE", NumberV(math.MaxFloat64, true))
	a.setOwn(numCtor, "MIN_VALUE", NumberV(5e-324, true))
	a.setOwn(g, "Number", ObjV(numCtor, true))

	a.defN(a.NumberProto, "toString", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		det := this.Det && foldDet(UndefD, args)
		n := an.toNumber(this)
		if v := argAt(args, 0); v.Kind != Undefined {
			radix := int(an.toNumber(v))
			if radix >= 2 && radix <= 36 && n == math.Trunc(n) {
				return StringV(strconv.FormatInt(int64(n), radix), det), nil
			}
		}
		return StringV(interp.ToString(interp.NumberVal(n)), det), nil
	})
	a.defN(a.NumberProto, "toFixed", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		det := this.Det && foldDet(UndefD, args)
		return StringV(strconv.FormatFloat(an.toNumber(this), 'f', int(an.toNumber(argAt(args, 0))), 64), det), nil
	})

	boolCtor := a.NewNativeObj("Boolean", func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		return BoolV(an.toBool(v), v.Det), nil
	})
	a.setOwn(boolCtor, "prototype", ObjV(a.BooleanProto, true))
	a.setOwn(g, "Boolean", ObjV(boolCtor, true))
}

func (a *Analysis) setupErrorsD(g *DObj) {
	a.setOwn(a.ErrorProto, "name", StringV("Error", true))
	a.setOwn(a.ErrorProto, "message", StringV("", true))
	a.defN(a.ErrorProto, "toString", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		s, det := an.toString(this)
		return StringV(s, det), nil
	})
	mk := func(name string) *DObj {
		ctor := a.NewNativeObj(name, func(an *Analysis, this Value, args []Value) (Value, error) {
			v := argAt(args, 0)
			msg, msgDet := "", true
			if v.Kind != Undefined {
				msg, msgDet = an.toString(v)
			}
			e := an.NewErrorObj(name, msg, msgDet && v.Det || v.Kind == Undefined)
			return ObjV(e, true), nil
		})
		a.setOwn(ctor, "prototype", ObjV(a.ErrorProto, true))
		return ctor
	}
	for _, name := range []string{"Error", "TypeError", "ReferenceError", "RangeError", "SyntaxError"} {
		a.setOwn(g, name, ObjV(mk(name), true))
	}
}

func (a *Analysis) setupTopLevelD(g *DObj) {
	a.defN(g, "parseInt", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		det := foldDet(UndefD, args)
		s, sdet := an.toString(argAt(args, 0))
		det = det && sdet
		radix := 10
		if v := argAt(args, 1); v.Kind != Undefined {
			radix = int(an.toNumber(v))
			if radix == 0 {
				radix = 10
			}
		}
		return NumberV(parseIntKernel(s, radix), det), nil
	})
	a.defN(g, "parseFloat", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		det := foldDet(UndefD, args)
		s, sdet := an.toString(argAt(args, 0))
		return NumberV(parseFloatKernel(s), det && sdet), nil
	})
	a.defN(g, "isNaN", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		return BoolV(math.IsNaN(an.toNumber(v)), v.Det), nil
	})
	a.defN(g, "isFinite", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		v := argAt(args, 0)
		n := an.toNumber(v)
		return BoolV(!math.IsNaN(n) && !math.IsInf(n, 0), v.Det), nil
	})

	// Indirect eval evaluates in the global scope; direct eval is handled at
	// call sites by execEval.
	evalObj := a.NewNativeObj("eval", func(an *Analysis, this Value, args []Value) (Value, error) {
		argv := argAt(args, 0)
		if argv.Kind != String {
			return argv, nil
		}
		fn, lout := an.lowerEvalFor(an.Mod.Top(), argv.S)
		if lout.kind != oNormal {
			return Value{}, &Thrown{Val: lout.val}
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
	})
	evalObj.Native.IsEval = true
	a.setOwn(g, "eval", ObjV(evalObj, true))

	// Date.now is an indeterminate input source.
	date := a.NewNativeObj("Date", func(an *Analysis, this Value, args []Value) (Value, error) {
		o := an.NewPlainObj()
		an.setOwn(o, "__time", NumberV(an.opts.Now, false))
		return ObjV(o, true), nil
	})
	a.defN(date, "now", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		return NumberV(an.opts.Now, false), nil
	})
	a.setOwn(g, "Date", ObjV(date, true))

	// __observe(label, value) is a no-op marker for generated test programs.
	a.defN(g, "__observe", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		return UndefD, nil
	})

	// __input(name) reads a configured program input: always indeterminate.
	a.defN(g, "__input", false, func(an *Analysis, this Value, args []Value) (Value, error) {
		name, _ := an.toString(argAt(args, 0))
		if iv, ok := an.opts.Inputs[name]; ok {
			return fromConcrete(an, iv), nil
		}
		return Value{Kind: Undefined, Det: false}, nil
	})
}

// fromConcrete imports a concrete input value as an indeterminate
// instrumented value (program inputs are indeterminate by definition, §2.1).
func fromConcrete(a *Analysis, v interp.Value) Value {
	switch v.Kind {
	case interp.Undefined:
		return Value{Kind: Undefined, Det: false}
	case interp.Null:
		return Value{Kind: Null, Det: false}
	case interp.Bool:
		return BoolV(v.B, false)
	case interp.Number:
		return NumberV(v.N, false)
	case interp.String:
		return StringV(v.S, false)
	default:
		// Structured inputs are imported as fresh indeterminate objects.
		o := a.NewPlainObj()
		for _, k := range v.O.OwnKeys() {
			pv, _ := v.O.Get(k)
			a.setOwn(o, k, fromConcrete(a, pv))
		}
		o.forcedOpen = true
		return ObjV(o, false)
	}
}

func parseIntKernel(s string, radix int) float64 {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	if radix == 16 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		s = s[2:]
	}
	end := 0
	for end < len(s) && digitValue(s[end]) < radix {
		end++
	}
	if end == 0 {
		return math.NaN()
	}
	n, err := strconv.ParseInt(s[:end], radix, 64)
	if err != nil {
		return math.NaN()
	}
	if neg {
		n = -n
	}
	return float64(n)
}

func parseFloatKernel(s string) float64 {
	s = strings.TrimSpace(s)
	end := len(s)
	for end > 0 {
		if _, err := strconv.ParseFloat(s[:end], 64); err == nil {
			break
		}
		end--
	}
	if end == 0 {
		return math.NaN()
	}
	n, _ := strconv.ParseFloat(s[:end], 64)
	return n
}

func digitValue(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'z':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'Z':
		return int(b-'A') + 10
	}
	return 99
}
