package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"determinacy/internal/ir"
)

// Policy is a built-in's declared determinacy policy: how the instrumented
// interpreter (internal/core) derives the determinacy of its result (§4).
type Policy uint8

const (
	// Pure: the result is determinate iff the receiver (for prototype
	// methods) and every operand are, after a toPrimitive that carries
	// determinacy. Core converts the operands and calls the kernel, so a
	// pure kernel sees only primitives, never touches its Host and never
	// calls back into the interpreter.
	Pure Policy = iota
	// Source: the result is always indeterminate (Math.random, Date.now,
	// __input). The kernel reads the Host's sources.
	Source
	// Console: output, suppressed during counterfactual execution.
	Console
	// Modeled: the native walks the heap, allocates or calls back; core
	// keeps a hand-written determinacy model for it.
	Modeled
)

// Summary is a native's abstract pointer behaviour: how the static
// points-to analysis (internal/pointsto) models a call to it. The zero
// value has no pointer effect: the result is a primitive, or the native is
// left unmodeled, as the paper's baseline leaves most of the library.
type Summary uint8

const (
	Opaque          Summary = iota
	CallsThis               // f.call(t, ...a) calls the receiver f
	AppliesThis             // f.apply(t, arr) calls f with arr's elements
	StoresArgs              // every argument flows into the receiver's elements
	LoadsElement            // the result is one of the receiver's elements
	CallsBack               // argument 0 is called with the receiver's elements
	Constructs              // the result is fresh, its prototype the constructor's .prototype
	ReturnsElement          // the result is a DOM element
	ReturnsNodeList         // the result is a DOM node list, an array of elements
	CallsLater              // argument 0 is called later, by a timer
	Listens                 // argument 1 is called with an event
)

// Host is what a kernel may ask of the interpreter running it: the
// indeterminate sources. Both interpreters implement it. Modeled and
// console kernels run only in this package and assert *Interp.
type Host interface {
	Random() float64
	Now() float64
	Input(name string) Value
}

// Builtin is one property of the standard library: a native function with
// its concrete kernel, determinacy policy and abstract summary, or a data
// property.
type Builtin struct {
	// Owner is the object the property is set on: "" for the global
	// object, a prototype such as "Array.prototype", or the Name of an
	// earlier global entry (a namespace or a constructor).
	Owner, Name string
	Policy      Policy
	Summary     Summary
	// Fn is the concrete kernel; nil for a data property.
	Fn NativeFunc
	// Val is a data property's primitive value, unless Ref names an object
	// instead: "global", a prototype, or "{}" for a fresh namespace object.
	Val Value
	Ref string

	owner, ref, slot int // resolved by init
}

// Slots index the objects built-ins are installed on. The first seven are
// the prototypes, in the order of PrototypeNames; then the global object;
// the rest are filled by entries that own later entries.
const (
	SlotObjectProto = iota
	SlotFunctionProto
	SlotArrayProto
	SlotStringProto
	SlotNumberProto
	SlotBooleanProto
	SlotErrorProto
	SlotGlobal
	NumSlots = 24
)

// PrototypeNames names the prototype slots.
var PrototypeNames = [SlotGlobal]string{"Object.prototype", "Function.prototype",
	"Array.prototype", "String.prototype", "Number.prototype", "Boolean.prototype", "Error.prototype"}

// Path is the entry's qualified name, e.g. "Math.floor" or "parseInt".
func (b *Builtin) Path() string {
	if b.Owner == "" {
		return b.Name
	}
	return b.Owner + "." + b.Name
}

// IsMethod reports whether the entry lives on a prototype, where the
// receiver is an operand.
func (b *Builtin) IsMethod() bool { return b.owner < SlotGlobal }

// IsEval reports whether the entry is the global eval binding.
func (b *Builtin) IsEval() bool { return b.Owner == "" && b.Name == "eval" }

// Slots reports the slot of the entry's owner, the slot it fills for
// later entries (-1 if none) and, for a Ref entry, the referenced slot (-1
// for a fresh namespace object).
func (b *Builtin) Slots() (owner, slot, ref int) { return b.owner, b.slot, b.ref }

// Builtins is the standard library, in install order. Both interpreters
// install it by walking this slice, so their allocation numbers (rendered
// as obj#N, compared by soundcheck) stay in lock-step.
var Builtins = []Builtin{
	{Name: "globalThis", Ref: "global"},
	{Name: "undefined", Val: UndefinedVal},
	{Name: "NaN", Val: NumberVal(math.NaN())},
	{Name: "Infinity", Val: NumberVal(math.Inf(1))},

	{Name: "console", Ref: "{}"},
	{Owner: "console", Name: "log", Policy: Console, Fn: consoleLog},
	{Owner: "console", Name: "warn", Policy: Console, Fn: consoleLog},
	{Owner: "console", Name: "error", Policy: Console, Fn: consoleLog},
	{Owner: "console", Name: "info", Policy: Console, Fn: consoleLog},
	// alert, as used in the paper's Figure 3.
	{Name: "alert", Policy: Console, Fn: consoleLog},
	{Name: "print", Policy: Console, Fn: consoleLog},

	{Name: "Math", Ref: "{}"},
	{Owner: "Math", Name: "abs", Fn: math1(math.Abs)},
	{Owner: "Math", Name: "floor", Fn: math1(math.Floor)},
	{Owner: "Math", Name: "ceil", Fn: math1(math.Ceil)},
	{Owner: "Math", Name: "sqrt", Fn: math1(math.Sqrt)},
	{Owner: "Math", Name: "sin", Fn: math1(math.Sin)},
	{Owner: "Math", Name: "cos", Fn: math1(math.Cos)},
	{Owner: "Math", Name: "log", Fn: math1(math.Log)},
	{Owner: "Math", Name: "exp", Fn: math1(math.Exp)},
	{Owner: "Math", Name: "round", Fn: math1(func(x float64) float64 { return math.Floor(x + 0.5) })},
	{Owner: "Math", Name: "pow", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		return NumberVal(math.Pow(ToNumber(arg(args, 0)), ToNumber(arg(args, 1)))), nil
	}},
	{Owner: "Math", Name: "min", Fn: minmax(math.Inf(1), math.Min)},
	{Owner: "Math", Name: "max", Fn: minmax(math.Inf(-1), math.Max)},
	// Math.random is the canonical indeterminate source (§2.1).
	{Owner: "Math", Name: "random", Policy: Source, Fn: func(h Host, _ Value, _ []Value) (Value, error) {
		return NumberVal(h.Random()), nil
	}},
	{Owner: "Math", Name: "PI", Val: NumberVal(math.Pi)},
	{Owner: "Math", Name: "E", Val: NumberVal(math.E)},

	{Name: "Object", Policy: Modeled, Summary: Constructs, Fn: func(h Host, _ Value, args []Value) (Value, error) {
		if a := arg(args, 0); a.Kind == Object {
			return a, nil
		}
		return ObjVal(h.(*Interp).NewPlain()), nil
	}},
	{Owner: "Object", Name: "prototype", Ref: "Object.prototype"},
	{Owner: "Object", Name: "keys", Policy: Modeled, Fn: func(h Host, _ Value, args []Value) (Value, error) {
		it, a := h.(*Interp), arg(args, 0)
		if a.Kind != Object {
			return UndefinedVal, it.typeError("Object.keys requires an object")
		}
		keys := a.O.OwnKeys()
		elems := make([]Value, 0, len(keys))
		for _, k := range keys {
			if a.O.Class == "Array" && k == "length" {
				continue
			}
			elems = append(elems, StringVal(k))
		}
		return ObjVal(it.NewArray(elems)), nil
	}},
	{Owner: "Object", Name: "getPrototypeOf", Policy: Modeled, Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		a := arg(args, 0)
		if a.Kind != Object || a.O.Proto == nil {
			return NullVal, nil
		}
		return ObjVal(a.O.Proto), nil
	}},
	{Owner: "Object", Name: "create", Policy: Modeled, Fn: func(h Host, _ Value, args []Value) (Value, error) {
		var proto *Obj
		if a := arg(args, 0); a.Kind == Object {
			proto = a.O
		}
		return ObjVal(h.(*Interp).NewObject(proto)), nil
	}},
	{Owner: "Object.prototype", Name: "hasOwnProperty", Policy: Modeled, Fn: func(_ Host, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return FalseVal, nil
		}
		_, ok := this.O.Get(ToString(arg(args, 0)))
		return BoolVal(ok), nil
	}},
	{Owner: "Object.prototype", Name: "toString", Fn: toStringKernel},

	{Name: "Function", Policy: Modeled, Fn: func(h Host, _ Value, _ []Value) (Value, error) {
		return UndefinedVal, h.(*Interp).typeError("the Function constructor is not supported; use eval")
	}},
	{Owner: "Function", Name: "prototype", Ref: "Function.prototype"},
	{Owner: "Function.prototype", Name: "call", Policy: Modeled, Summary: CallsThis, Fn: func(h Host, this Value, args []Value) (Value, error) {
		rest := args
		if len(rest) > 0 {
			rest = rest[1:]
		}
		return h.(*Interp).CallFunction(this, arg(args, 0), rest)
	}},
	{Owner: "Function.prototype", Name: "apply", Policy: Modeled, Summary: AppliesThis, Fn: func(h Host, this Value, args []Value) (Value, error) {
		var rest []Value
		if a := arg(args, 1); a.Kind == Object {
			rest = a.O.elements(0, a.O.ArrayLength())
		}
		return h.(*Interp).CallFunction(this, arg(args, 0), rest)
	}},

	{Name: "Array", Policy: Modeled, Summary: Constructs, Fn: func(h Host, _ Value, args []Value) (Value, error) {
		it := h.(*Interp)
		if len(args) == 1 && args[0].Kind == Number {
			a := it.NewArray(nil)
			a.Set("length", args[0])
			return ObjVal(a), nil
		}
		return ObjVal(it.NewArray(args)), nil
	}},
	{Owner: "Array", Name: "prototype", Ref: "Array.prototype"},
	{Owner: "Array", Name: "isArray", Policy: Modeled, Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		a := arg(args, 0)
		return BoolVal(a.Kind == Object && a.O.Class == "Array"), nil
	}},
	{Owner: "Array.prototype", Name: "push", Policy: Modeled, Summary: StoresArgs, Fn: func(_ Host, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefinedVal, nil
		}
		n := this.O.ArrayLength()
		for _, a := range args {
			this.O.Set(strconv.Itoa(n), a)
			n++
		}
		this.O.Set("length", NumberVal(float64(n)))
		return NumberVal(float64(n)), nil
	}},
	{Owner: "Array.prototype", Name: "pop", Policy: Modeled, Summary: LoadsElement, Fn: func(_ Host, this Value, _ []Value) (Value, error) {
		if this.Kind != Object {
			return UndefinedVal, nil
		}
		n := this.O.ArrayLength()
		if n == 0 {
			return UndefinedVal, nil
		}
		v, _ := this.O.Get(strconv.Itoa(n - 1))
		this.O.Delete(strconv.Itoa(n - 1))
		this.O.Set("length", NumberVal(float64(n-1)))
		return v, nil
	}},
	{Owner: "Array.prototype", Name: "join", Policy: Modeled, Fn: func(_ Host, this Value, args []Value) (Value, error) {
		sep := ","
		if a := arg(args, 0); a.Kind != Undefined {
			sep = ToString(a)
		}
		if this.Kind != Object {
			return StringVal(""), nil
		}
		return StringVal(this.O.join(sep)), nil
	}},
	{Owner: "Array.prototype", Name: "indexOf", Policy: Modeled, Fn: func(_ Host, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return NumberVal(-1), nil
		}
		n := this.O.ArrayLength()
		for k := 0; k < n; k++ {
			el, _ := this.O.Get(strconv.Itoa(k))
			if StrictEquals(el, arg(args, 0)) {
				return NumberVal(float64(k)), nil
			}
		}
		return NumberVal(-1), nil
	}},
	{Owner: "Array.prototype", Name: "slice", Policy: Modeled, Fn: func(h Host, this Value, args []Value) (Value, error) {
		it := h.(*Interp)
		if this.Kind != Object {
			return ObjVal(it.NewArray(nil)), nil
		}
		start, end := SliceRange(args, this.O.ArrayLength())
		return ObjVal(it.NewArray(this.O.elements(start, end))), nil
	}},
	{Owner: "Array.prototype", Name: "concat", Policy: Modeled, Fn: func(h Host, this Value, args []Value) (Value, error) {
		var elems []Value
		for _, v := range append([]Value{this}, args...) {
			if v.Kind == Object && v.O.Class == "Array" {
				elems = append(elems, v.O.elements(0, v.O.ArrayLength())...)
			} else {
				elems = append(elems, v)
			}
		}
		return ObjVal(h.(*Interp).NewArray(elems)), nil
	}},
	{Owner: "Array.prototype", Name: "forEach", Policy: Modeled, Summary: CallsBack, Fn: func(h Host, this Value, args []Value) (Value, error) {
		if this.Kind != Object {
			return UndefinedVal, nil
		}
		return UndefinedVal, h.(*Interp).eachElement(this, arg(args, 0), func(Value, Value) {})
	}},
	{Owner: "Array.prototype", Name: "map", Policy: Modeled, Summary: CallsBack, Fn: func(h Host, this Value, args []Value) (Value, error) {
		it := h.(*Interp)
		if this.Kind != Object {
			return ObjVal(it.NewArray(nil)), nil
		}
		elems := make([]Value, 0, this.O.ArrayLength())
		err := it.eachElement(this, arg(args, 0), func(_, v Value) { elems = append(elems, v) })
		if err != nil {
			return UndefinedVal, err
		}
		return ObjVal(it.NewArray(elems)), nil
	}},
	{Owner: "Array.prototype", Name: "filter", Policy: Modeled, Summary: CallsBack, Fn: func(h Host, this Value, args []Value) (Value, error) {
		it := h.(*Interp)
		if this.Kind != Object {
			return ObjVal(it.NewArray(nil)), nil
		}
		var elems []Value
		err := it.eachElement(this, arg(args, 0), func(el, v Value) {
			if ToBool(v) {
				elems = append(elems, el)
			}
		})
		if err != nil {
			return UndefinedVal, err
		}
		return ObjVal(it.NewArray(elems)), nil
	}},
	{Owner: "Array.prototype", Name: "shift", Policy: Modeled, Summary: LoadsElement, Fn: func(_ Host, this Value, _ []Value) (Value, error) {
		if this.Kind != Object {
			return UndefinedVal, nil
		}
		n := this.O.ArrayLength()
		if n == 0 {
			return UndefinedVal, nil
		}
		first, _ := this.O.Get("0")
		for k := 1; k < n; k++ {
			if v, ok := this.O.Get(strconv.Itoa(k)); ok {
				this.O.Set(strconv.Itoa(k-1), v)
			} else {
				this.O.Delete(strconv.Itoa(k - 1))
			}
		}
		this.O.Delete(strconv.Itoa(n - 1))
		this.O.Set("length", NumberVal(float64(n-1)))
		return first, nil
	}},

	{Name: "String", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return StringVal(""), nil
		}
		return StringVal(ToString(args[0])), nil
	}},
	{Owner: "String", Name: "prototype", Ref: "String.prototype"},
	{Owner: "String", Name: "fromCharCode", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		var b strings.Builder
		for _, a := range args {
			b.WriteRune(rune(int(ToNumber(a))))
		}
		return StringVal(b.String()), nil
	}},
	{Owner: "String.prototype", Name: "charAt", Fn: strMethod(func(s string, args []Value) Value {
		k := int(ToNumber(arg(args, 0)))
		if k < 0 || k >= len(s) {
			return StringVal("")
		}
		return StringVal(string(s[k]))
	})},
	{Owner: "String.prototype", Name: "charCodeAt", Fn: strMethod(func(s string, args []Value) Value {
		k := int(ToNumber(arg(args, 0)))
		if k < 0 || k >= len(s) {
			return NumberVal(math.NaN())
		}
		return NumberVal(float64(s[k]))
	})},
	{Owner: "String.prototype", Name: "indexOf", Fn: strMethod(func(s string, args []Value) Value {
		return NumberVal(float64(strings.Index(s, ToString(arg(args, 0)))))
	})},
	{Owner: "String.prototype", Name: "lastIndexOf", Fn: strMethod(func(s string, args []Value) Value {
		return NumberVal(float64(strings.LastIndex(s, ToString(arg(args, 0)))))
	})},
	{Owner: "String.prototype", Name: "toUpperCase", Fn: strMethod(func(s string, _ []Value) Value {
		return StringVal(strings.ToUpper(s))
	})},
	{Owner: "String.prototype", Name: "toLowerCase", Fn: strMethod(func(s string, _ []Value) Value {
		return StringVal(strings.ToLower(s))
	})},
	{Owner: "String.prototype", Name: "trim", Fn: strMethod(func(s string, _ []Value) Value {
		return StringVal(strings.TrimSpace(s))
	})},
	{Owner: "String.prototype", Name: "substring", Fn: strMethod(func(s string, args []Value) Value {
		a := clampIndex(int(ToNumber(arg(args, 0))), len(s))
		b := len(s)
		if v := arg(args, 1); v.Kind != Undefined {
			b = clampIndex(int(ToNumber(v)), len(s))
		}
		if a > b {
			a, b = b, a
		}
		return StringVal(s[a:b])
	})},
	{Owner: "String.prototype", Name: "substr", Fn: strMethod(func(s string, args []Value) Value {
		start := int(ToNumber(arg(args, 0)))
		if start < 0 {
			start = max(start+len(s), 0)
		}
		if start > len(s) {
			return StringVal("")
		}
		n := len(s) - start
		if v := arg(args, 1); v.Kind != Undefined {
			n = int(ToNumber(v))
		}
		n = min(max(n, 0), len(s)-start)
		return StringVal(s[start : start+n])
	})},
	{Owner: "String.prototype", Name: "slice", Fn: strMethod(func(s string, args []Value) Value {
		a, b := SliceRange(args, len(s))
		return StringVal(s[a:b])
	})},
	{Owner: "String.prototype", Name: "split", Policy: Modeled, Fn: func(h Host, this Value, args []Value) (Value, error) {
		parts := SplitParts(ToString(this), args)
		elems := make([]Value, len(parts))
		for k, part := range parts {
			elems[k] = StringVal(part)
		}
		return ObjVal(h.(*Interp).NewArray(elems)), nil
	}},
	{Owner: "String.prototype", Name: "replace", Fn: strMethod(func(s string, args []Value) Value {
		return StringVal(strings.Replace(s, ToString(arg(args, 0)), ToString(arg(args, 1)), 1))
	})},
	{Owner: "String.prototype", Name: "concat", Fn: strMethod(func(s string, args []Value) Value {
		var b strings.Builder
		b.WriteString(s)
		for _, a := range args {
			b.WriteString(ToString(a))
		}
		return StringVal(b.String())
	})},
	{Owner: "String.prototype", Name: "toString", Fn: toStringKernel},

	{Name: "Number", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return NumberVal(0), nil
		}
		return NumberVal(ToNumber(args[0])), nil
	}},
	{Owner: "Number", Name: "prototype", Ref: "Number.prototype"},
	{Owner: "Number", Name: "MAX_VALUE", Val: NumberVal(math.MaxFloat64)},
	{Owner: "Number", Name: "MIN_VALUE", Val: NumberVal(5e-324)},
	{Owner: "Number.prototype", Name: "toString", Fn: func(_ Host, this Value, args []Value) (Value, error) {
		n := ToNumber(this)
		if a := arg(args, 0); a.Kind != Undefined {
			radix := int(ToNumber(a))
			if radix >= 2 && radix <= 36 && n == math.Trunc(n) {
				return StringVal(strconv.FormatInt(int64(n), radix)), nil
			}
		}
		return StringVal(ToString(NumberVal(n))), nil
	}},
	{Owner: "Number.prototype", Name: "toFixed", Fn: func(_ Host, this Value, args []Value) (Value, error) {
		return StringVal(strconv.FormatFloat(ToNumber(this), 'f', int(ToNumber(arg(args, 0))), 64)), nil
	}},
	// Boolean is modeled: ToBool of an object is true whatever toPrimitive
	// would give, so a pure kernel over converted operands would be wrong.
	{Name: "Boolean", Policy: Modeled, Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		return BoolVal(ToBool(arg(args, 0))), nil
	}},
	{Owner: "Boolean", Name: "prototype", Ref: "Boolean.prototype"},

	{Owner: "Error.prototype", Name: "name", Val: StringVal("Error")},
	{Owner: "Error.prototype", Name: "message", Val: StringVal("")},
	{Owner: "Error.prototype", Name: "toString", Fn: toStringKernel},
	{Name: "Error", Policy: Modeled, Summary: Constructs, Fn: errorCtor("Error")},
	{Owner: "Error", Name: "prototype", Ref: "Error.prototype"},
	{Name: "TypeError", Policy: Modeled, Summary: Constructs, Fn: errorCtor("TypeError")},
	{Owner: "TypeError", Name: "prototype", Ref: "Error.prototype"},
	{Name: "ReferenceError", Policy: Modeled, Summary: Constructs, Fn: errorCtor("ReferenceError")},
	{Owner: "ReferenceError", Name: "prototype", Ref: "Error.prototype"},
	{Name: "RangeError", Policy: Modeled, Summary: Constructs, Fn: errorCtor("RangeError")},
	{Owner: "RangeError", Name: "prototype", Ref: "Error.prototype"},
	{Name: "SyntaxError", Policy: Modeled, Summary: Constructs, Fn: errorCtor("SyntaxError")},
	{Owner: "SyntaxError", Name: "prototype", Ref: "Error.prototype"},

	{Name: "parseInt", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		radix := 10
		if a := arg(args, 1); a.Kind != Undefined {
			if radix = int(ToNumber(a)); radix == 0 {
				radix = 10
			}
		}
		return NumberVal(parseInt(ToString(arg(args, 0)), radix)), nil
	}},
	{Name: "parseFloat", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		s := strings.TrimSpace(ToString(arg(args, 0)))
		for end := len(s); end > 0; end-- {
			if n, err := strconv.ParseFloat(s[:end], 64); err == nil {
				return NumberVal(n), nil
			}
		}
		return NumberVal(math.NaN()), nil
	}},
	{Name: "isNaN", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		return BoolVal(math.IsNaN(ToNumber(arg(args, 0)))), nil
	}},
	{Name: "isFinite", Fn: func(_ Host, _ Value, args []Value) (Value, error) {
		n := ToNumber(arg(args, 0))
		return BoolVal(!math.IsNaN(n) && !math.IsInf(n, 0)), nil
	}},
	// eval is special-cased at call sites; the kernel only handles the
	// indirect-call case (e.g. var e = eval; e("...")), which evaluates in
	// the global scope.
	{Name: "eval", Policy: Modeled, Fn: indirectEval},
	// Date: only now(), returning the configured timestamp.
	{Name: "Date", Policy: Modeled, Fn: func(h Host, _ Value, _ []Value) (Value, error) {
		o := h.(*Interp).NewPlain()
		o.Set("__time", NumberVal(h.Now()))
		return ObjVal(o), nil
	}},
	{Owner: "Date", Name: "now", Policy: Source, Fn: func(h Host, _ Value, _ []Value) (Value, error) {
		return NumberVal(h.Now()), nil
	}},
	// __observe(label, value): a no-op marker used by generated test
	// programs; the interesting facts come from evaluating the arguments.
	// Modeled because its undefined result is determinate whatever the
	// operands.
	{Name: "__observe", Policy: Modeled, Fn: func(Host, Value, []Value) (Value, error) {
		return UndefinedVal, nil
	}},
	// __input(name): the generic indeterminate program input source.
	{Name: "__input", Policy: Source, Fn: func(h Host, _ Value, args []Value) (Value, error) {
		return h.Input(ToString(arg(args, 0))), nil
	}},
}

func init() {
	owners := map[string]bool{}
	for _, b := range Builtins {
		owners[b.Owner] = true
	}
	slots := map[string]int{"": SlotGlobal, "global": SlotGlobal, "{}": -1}
	for k, name := range PrototypeNames {
		slots[name] = k
	}
	next := SlotGlobal + 1
	for i := range Builtins {
		b := &Builtins[i]
		owner, okOwner := slots[b.Owner]
		ref, okRef := slots[b.Ref]
		if !okOwner || owner < 0 || (b.Ref != "" && !okRef) {
			panic("interp: built-in " + b.Path() + " names an unknown object")
		}
		b.owner, b.slot, b.ref = owner, -1, -1
		if b.Ref != "" {
			b.ref = ref
		}
		if b.Owner == "" && owners[b.Name] {
			if next == NumSlots {
				panic("interp: raise NumSlots")
			}
			b.slot, slots[b.Name] = next, next
			next++
		}
	}
}

// setupRuntime builds the prototypes and the global object, then installs
// Builtins in order.
func (it *Interp) setupRuntime() {
	var objs [NumSlots]*Obj
	for k := range PrototypeNames {
		// Their Data field carries protoMarker so their properties are
		// treated as non-enumerable by for-in.
		objs[k] = &Obj{Class: "Object", Data: protoMarker}
		if k != SlotObjectProto {
			objs[k].Proto = objs[SlotObjectProto]
		}
	}
	it.ObjectProto, it.FunctionProto, it.ArrayProto, it.StringProto = objs[0], objs[1], objs[2], objs[3]
	it.NumberProto, it.BooleanProto, it.ErrorProto = objs[4], objs[5], objs[6]
	it.Global = it.NewObject(it.ObjectProto)
	objs[SlotGlobal] = it.Global

	for i := range Builtins {
		b := &Builtins[i]
		v := b.Val
		switch {
		case b.Fn != nil:
			v = ObjVal(it.NewNative(b.Name, b.Fn))
			v.O.Native.IsEval = b.IsEval()
		case b.ref >= 0:
			v = ObjVal(objs[b.ref])
		case b.Ref != "":
			v = ObjVal(it.NewPlain())
		}
		if b.slot >= 0 {
			objs[b.slot] = v.O
		}
		objs[b.owner].Set(b.Name, v)
	}
}

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return UndefinedVal
}

func (it *Interp) typeError(msg string) error {
	return &Thrown{Val: ObjVal(it.NewError("TypeError", msg))}
}

func consoleLog(h Host, _ Value, args []Value) (Value, error) {
	fmt.Fprintln(h.(*Interp).Out(), FormatArgs(args))
	return UndefinedVal, nil
}

func math1(f func(float64) float64) NativeFunc {
	return func(_ Host, _ Value, args []Value) (Value, error) {
		return NumberVal(f(ToNumber(arg(args, 0)))), nil
	}
}

func minmax(init float64, pick func(a, b float64) float64) NativeFunc {
	return func(_ Host, _ Value, args []Value) (Value, error) {
		r := init
		for _, a := range args {
			n := ToNumber(a)
			if math.IsNaN(n) {
				return NumberVal(math.NaN()), nil
			}
			r = pick(r, n)
		}
		return NumberVal(r), nil
	}
}

func strMethod(f func(s string, args []Value) Value) NativeFunc {
	return func(_ Host, this Value, args []Value) (Value, error) {
		return f(ToString(this), args), nil
	}
}

func toStringKernel(_ Host, this Value, _ []Value) (Value, error) {
	return StringVal(ToString(this)), nil
}

func errorCtor(name string) NativeFunc {
	return func(h Host, _ Value, args []Value) (Value, error) {
		return ObjVal(h.(*Interp).NewError(name, ErrorMessage(arg(args, 0)))), nil
	}
}

// ErrorMessage is the message an Error constructor records for its
// argument: "" when it is undefined or absent.
func ErrorMessage(v Value) string {
	if v.Kind == Undefined {
		return ""
	}
	return ToString(v)
}

// SliceRange resolves slice(start, end) arguments against length n,
// counting negative indices from the end.
func SliceRange(args []Value, n int) (int, int) {
	start, end := 0, n
	if a := arg(args, 0); a.Kind != Undefined {
		start = clampIndex(int(ToNumber(a)), n)
	}
	if a := arg(args, 1); a.Kind != Undefined {
		end = clampIndex(int(ToNumber(a)), n)
	}
	return start, max(start, end)
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	return min(max(i, 0), n)
}

// SplitParts is String.prototype.split(sep) over s: the whole string for an
// undefined separator, the characters for an empty one.
func SplitParts(s string, args []Value) []string {
	sep := arg(args, 0)
	if sep.Kind == Undefined {
		return []string{s}
	}
	if sepStr := ToString(sep); sepStr != "" {
		return strings.Split(s, sepStr)
	}
	var parts []string
	for _, c := range s {
		parts = append(parts, string(c))
	}
	return parts
}

func parseInt(s string, radix int) float64 {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg || strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	if radix == 16 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		s = s[2:]
	}
	end := 0
	for end < len(s) && digitVal(s[end]) < radix {
		end++
	}
	n, err := strconv.ParseInt(s[:end], radix, 64)
	if end == 0 || err != nil {
		return math.NaN()
	}
	if neg {
		n = -n
	}
	return float64(n)
}

func digitVal(b byte) int {
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

// elements returns the array elements at indices [start, end).
func (o *Obj) elements(start, end int) []Value {
	var elems []Value
	for k := start; k < end; k++ {
		el, _ := o.Get(strconv.Itoa(k))
		elems = append(elems, el)
	}
	return elems
}

// join renders array elements with sep, undefined and null as "".
func (o *Obj) join(sep string) string {
	n := o.ArrayLength()
	parts := make([]string, 0, n)
	for k := 0; k < n; k++ {
		el, ok := o.Get(strconv.Itoa(k))
		if !ok || el.Kind == Undefined || el.Kind == Null {
			parts = append(parts, "")
		} else {
			parts = append(parts, ToString(el))
		}
	}
	return strings.Join(parts, sep)
}

// eachElement calls cb(element, index, array) for every array element and
// hands each element and result to visit.
func (it *Interp) eachElement(arr, cb Value, visit func(el, v Value)) error {
	n := arr.O.ArrayLength()
	for k := 0; k < n; k++ {
		el, _ := arr.O.Get(strconv.Itoa(k))
		v, err := it.CallFunction(cb, UndefinedVal, []Value{el, NumberVal(float64(k)), arr})
		if err != nil {
			return err
		}
		visit(el, v)
	}
	return nil
}

func indirectEval(h Host, _ Value, args []Value) (Value, error) {
	it, a := h.(*Interp), arg(args, 0)
	if a.Kind != String {
		return a, nil
	}
	fn, err := ir.LowerEval(it.Mod, a.S, it.Mod.Top())
	if err != nil {
		return UndefinedVal, &Thrown{Val: it.throwError("SyntaxError", err.Error()).val}
	}
	env := &Env{Parent: &Env{Slots: nil, Fn: it.Mod.Top()}, Slots: make([]Value, fn.NumSlots), Fn: fn}
	nf := &Frame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: -1}
	it.pushFrame(nf)
	out := it.execBlock(nf, fn.Body)
	it.popFrame()
	switch out.kind {
	case oReturn, oNormal:
		return out.val, nil
	case oThrow:
		return UndefinedVal, &Thrown{Val: out.val}
	default:
		return UndefinedVal, out.err
	}
}
