// Package interp is the concrete mini-JS interpreter: a big-step,
// trace-capable evaluator over the µJS-style IR of internal/ir. It provides
// the reference semantics (Figure 8 of the paper, extended to full mini-JS)
// against which the instrumented determinacy interpreter in internal/core is
// differentially tested.
package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"determinacy/internal/ast"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// Kind classifies a runtime value.
type Kind int

// Value kinds.
const (
	Undefined Kind = iota
	Null
	Bool
	Number
	String
	Object
)

func (k Kind) String() string {
	switch k {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case Bool:
		return "boolean"
	case Number:
		return "number"
	case String:
		return "string"
	case Object:
		return "object"
	}
	return "?"
}

// Value is a mini-JS runtime value. Objects, arrays and functions are
// represented by *Obj references.
type Value struct {
	Kind Kind
	B    bool
	N    float64
	S    string
	O    *Obj
}

// Convenience constructors.
var (
	UndefinedVal = Value{Kind: Undefined}
	NullVal      = Value{Kind: Null}
	TrueVal      = Value{Kind: Bool, B: true}
	FalseVal     = Value{Kind: Bool, B: false}
)

// BoolVal returns a boolean value.
func BoolVal(b bool) Value { return Value{Kind: Bool, B: b} }

// NumberVal returns a numeric value.
func NumberVal(n float64) Value { return Value{Kind: Number, N: n} }

// StringVal returns a string value.
func StringVal(s string) Value { return Value{Kind: String, S: s} }

// ObjVal wraps an object reference.
func ObjVal(o *Obj) Value { return Value{Kind: Object, O: o} }

// IsCallable reports whether v is a function.
func (v Value) IsCallable() bool {
	return v.Kind == Object && (v.O.Fn != nil || v.O.Native != nil)
}

// NativeFunc is the implementation of a built-in function, run by the
// interpreter h. Implementations that need more than the Host's sources
// (Function.prototype.call calls back) assert h.(*Interp). A
// JavaScript-level exception is reported by returning a *Thrown error.
type NativeFunc func(h Host, this Value, args []Value) (Value, error)

// Native is a built-in function with a name used in diagnostics and by the
// determinacy models in internal/core.
type Native struct {
	Name string
	Fn   NativeFunc
	// IsEval marks the global eval binding, which both interpreters
	// special-case at call sites.
	IsEval bool
}

// Thrown wraps a JavaScript exception value travelling through Go code.
type Thrown struct {
	Val Value
}

func (t *Thrown) Error() string { return "js exception: " + ToDisplay(t.Val) }

// Obj is a mini-JS object, array, function, or error.
type Obj struct {
	// Class is "Object", "Array", "Function" or "Error".
	Class string
	Proto *Obj

	props map[string]Value
	keys  []string

	// Closure state for user functions.
	Fn  *ir.Function
	Env *Env
	// Native is set for built-in functions.
	Native *Native

	// Data optionally links the object to host state (e.g. a DOM node).
	Data any

	// Getters and Setters hold accessor properties (used by the DOM
	// emulation for live properties like innerHTML). They are consulted
	// along the prototype chain before ordinary properties and are invoked
	// with the original receiver.
	Getters map[string]NativeFunc
	Setters map[string]NativeFunc

	// Alloc is a unique allocation number, for debugging and stable display.
	Alloc int
}

// DefineGetter installs an accessor getter for name.
func (o *Obj) DefineGetter(name string, fn NativeFunc) {
	if o.Getters == nil {
		o.Getters = make(map[string]NativeFunc)
	}
	o.Getters[name] = fn
}

// DefineSetter installs an accessor setter for name.
func (o *Obj) DefineSetter(name string, fn NativeFunc) {
	if o.Setters == nil {
		o.Setters = make(map[string]NativeFunc)
	}
	o.Setters[name] = fn
}

// findGetter walks the prototype chain for an accessor getter.
func (o *Obj) findGetter(name string) (NativeFunc, bool) {
	for cur := o; cur != nil; cur = cur.Proto {
		if fn, ok := cur.Getters[name]; ok {
			return fn, true
		}
		if _, ok := cur.props[name]; ok {
			return nil, false // a data property shadows inherited accessors
		}
	}
	return nil, false
}

// findSetter walks the prototype chain for an accessor setter.
func (o *Obj) findSetter(name string) (NativeFunc, bool) {
	for cur := o; cur != nil; cur = cur.Proto {
		if fn, ok := cur.Setters[name]; ok {
			return fn, true
		}
	}
	return nil, false
}

// Get returns the own property named name and whether it exists.
func (o *Obj) Get(name string) (Value, bool) {
	v, ok := o.props[name]
	return v, ok
}

// Lookup walks the prototype chain for name.
func (o *Obj) Lookup(name string) (Value, bool) {
	for cur := o; cur != nil; cur = cur.Proto {
		if v, ok := cur.props[name]; ok {
			return v, true
		}
	}
	return UndefinedVal, false
}

// Has reports whether name exists on o or its prototype chain.
func (o *Obj) Has(name string) bool {
	_, ok := o.Lookup(name)
	return ok
}

// Set writes an own property, maintaining array length semantics.
func (o *Obj) Set(name string, v Value) {
	if o.Class == "Array" {
		if name == "length" {
			o.setArrayLength(v)
			return
		}
		if idx, ok := ArrayIndex(name); ok {
			if cur := o.ArrayLength(); idx >= cur {
				o.setRaw("length", NumberVal(float64(idx+1)))
			}
		}
	}
	o.setRaw(name, v)
}

func (o *Obj) setRaw(name string, v Value) {
	if o.props == nil {
		o.props = make(map[string]Value)
	}
	if _, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
	}
	o.props[name] = v
}

// Delete removes an own property, reporting whether it existed.
func (o *Obj) Delete(name string) bool {
	if _, ok := o.props[name]; !ok {
		return false
	}
	delete(o.props, name)
	for i, k := range o.keys {
		if k == name {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
	return true
}

// Keys returns the own enumerable property names in insertion order.
// The returned slice is shared; callers must not modify it.
func (o *Obj) Keys() []string { return o.keys }

// OwnKeys returns a copy of the own property names in insertion order.
func (o *Obj) OwnKeys() []string {
	out := make([]string, len(o.keys))
	copy(out, o.keys)
	return out
}

// ArrayLength returns the numeric length of an array object.
func (o *Obj) ArrayLength() int {
	if v, ok := o.props["length"]; ok && v.Kind == Number {
		return int(v.N)
	}
	return 0
}

func (o *Obj) setArrayLength(v Value) {
	n := int(ToNumber(v))
	cur := o.ArrayLength()
	for i := n; i < cur; i++ {
		o.Delete(strconv.Itoa(i))
	}
	o.setRaw("length", NumberVal(float64(n)))
}

// ArrayIndex parses an array index property name.
func ArrayIndex(name string) (int, bool) {
	if name == "" {
		return 0, false
	}
	for _, c := range name {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(name)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Env is a runtime environment: one frame of local slots plus a link to the
// lexically enclosing environment.
type Env struct {
	Parent *Env
	Slots  []Value
	Fn     *ir.Function
}

// At walks hops parents and returns the slot.
func (e *Env) At(hops, slot int) Value {
	for i := 0; i < hops; i++ {
		e = e.Parent
	}
	return e.Slots[slot]
}

// SetAt walks hops parents and writes the slot.
func (e *Env) SetAt(hops, slot int, v Value) {
	for i := 0; i < hops; i++ {
		e = e.Parent
	}
	e.Slots[slot] = v
}

// ---------------------------------------------------------------------------
// Conversions

// ToBool applies JavaScript truthiness.
func ToBool(v Value) bool {
	switch v.Kind {
	case Undefined, Null:
		return false
	case Bool:
		return v.B
	case Number:
		return v.N != 0 && !math.IsNaN(v.N)
	case String:
		return v.S != ""
	case Object:
		return true
	}
	return false
}

// ToNumber converts per JavaScript semantics (without user-defined valueOf).
func ToNumber(v Value) float64 {
	switch v.Kind {
	case Undefined:
		return math.NaN()
	case Null:
		return 0
	case Bool:
		if v.B {
			return 1
		}
		return 0
	case Number:
		return v.N
	case String:
		s := strings.TrimSpace(v.S)
		if s == "" {
			return 0
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			if n, err := strconv.ParseUint(s[2:], 16, 64); err == nil {
				return float64(n)
			}
			return math.NaN()
		}
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return n
		}
		if s == "Infinity" || s == "+Infinity" {
			return math.Inf(1)
		}
		if s == "-Infinity" {
			return math.Inf(-1)
		}
		return math.NaN()
	case Object:
		p := toPrimitive(v)
		if p.Kind == Object {
			// Plain objects stay objects under toPrimitive; ToNumber of
			// "[object Object]" is NaN. Recursing instead overflowed the
			// stack. (Found by detfuzz.)
			return math.NaN()
		}
		return ToNumber(p)
	}
	return math.NaN()
}

// ToString converts per JavaScript semantics (without user-defined toString;
// arrays join their elements, other objects render as "[object Object]").
func ToString(v Value) string {
	switch v.Kind {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case Bool:
		return strconv.FormatBool(v.B)
	case Number:
		return ast.FormatNumber(v.N)
	case String:
		return v.S
	case Object:
		p := toPrimitive(v)
		if p.Kind == Object {
			return "[object Object]"
		}
		return ToString(p)
	}
	return "?"
}

// toPrimitive converts an object to a primitive using the built-in behaviour
// of arrays, functions and errors. User-defined toString/valueOf are not
// modeled (paper §4 makes the same exclusion).
func toPrimitive(v Value) Value {
	if v.Kind != Object {
		return v
	}
	o := v.O
	switch o.Class {
	case "Array":
		return StringVal(o.join(","))
	case "Function":
		name := ""
		if o.Fn != nil {
			name = o.Fn.Name
		} else if o.Native != nil {
			name = o.Native.Name
		}
		return StringVal("function " + name + "() { [native or user code] }")
	case "Error":
		name := "Error"
		if v, ok := o.Lookup("name"); ok {
			name = ToString(v)
		}
		msg := ""
		if v, ok := o.Lookup("message"); ok {
			msg = ToString(v)
		}
		return StringVal(ErrorString(name, msg))
	default:
		return v // callers map this to "[object Object]" / NaN
	}
}

// ErrorString renders an error from its name and message.
func ErrorString(name, msg string) string {
	if msg == "" {
		return name
	}
	return name + ": " + msg
}

// ToInt32 converts per the ECMAScript ToInt32 abstract operation.
func ToInt32(v Value) int32 {
	n := ToNumber(v)
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0
	}
	return int32(uint32(int64(n)))
}

// ToUint32 converts per the ECMAScript ToUint32 abstract operation.
func ToUint32(v Value) uint32 {
	n := ToNumber(v)
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0
	}
	return uint32(int64(n))
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Undefined, Null:
		return true
	case Bool:
		return a.B == b.B
	case Number:
		return a.N == b.N // NaN != NaN holds via float comparison
	case String:
		return a.S == b.S
	case Object:
		return a.O == b.O
	}
	return false
}

// LooseEquals implements ==.
func LooseEquals(a, b Value) bool {
	if a.Kind == b.Kind {
		return StrictEquals(a, b)
	}
	switch {
	case (a.Kind == Null && b.Kind == Undefined) || (a.Kind == Undefined && b.Kind == Null):
		return true
	case a.Kind == Number && b.Kind == String:
		return a.N == ToNumber(b)
	case a.Kind == String && b.Kind == Number:
		return ToNumber(a) == b.N
	case a.Kind == Bool:
		return LooseEquals(NumberVal(ToNumber(a)), b)
	case b.Kind == Bool:
		return LooseEquals(a, NumberVal(ToNumber(b)))
	case a.Kind == Object && (b.Kind == Number || b.Kind == String):
		return LooseEquals(primitive(a), b)
	case b.Kind == Object && (a.Kind == Number || a.Kind == String):
		return LooseEquals(a, primitive(b))
	}
	return false
}

// TypeOf implements the typeof operator.
func TypeOf(v Value) string {
	switch v.Kind {
	case Undefined:
		return "undefined"
	case Null:
		return "object"
	case Bool:
		return "boolean"
	case Number:
		return "number"
	case String:
		return "string"
	case Object:
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// Snapshot converts a value to a fact snapshot.
func Snapshot(v Value) facts.Snapshot {
	switch v.Kind {
	case Undefined:
		return facts.Snapshot{Kind: facts.VUndefined}
	case Null:
		return facts.Snapshot{Kind: facts.VNull}
	case Bool:
		return facts.Snapshot{Kind: facts.VBool, Bool: v.B}
	case Number:
		return facts.Snapshot{Kind: facts.VNumber, Num: v.N}
	case String:
		return facts.Snapshot{Kind: facts.VString, Str: v.S}
	default:
		if v.O.Fn != nil {
			return facts.Snapshot{Kind: facts.VFunction, FnIndex: v.O.Fn.Index, Alloc: v.O.Alloc}
		}
		if v.O.Native != nil {
			return facts.Snapshot{Kind: facts.VFunction, Native: v.O.Native.Name, Alloc: v.O.Alloc}
		}
		return facts.Snapshot{Kind: facts.VObject, Alloc: v.O.Alloc}
	}
}

// ToDisplay renders a value for console output and diagnostics.
func ToDisplay(v Value) string {
	if v.Kind == String {
		return v.S
	}
	if v.Kind == Object && v.O.Class == "Object" {
		var b strings.Builder
		b.WriteString("{")
		for i, k := range v.O.keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", k, ShortDisplay(v.O.props[k]))
		}
		b.WriteString("}")
		return b.String()
	}
	if v.Kind == Object && v.O.Class == "Array" {
		var b strings.Builder
		b.WriteString("[")
		n := v.O.ArrayLength()
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			el, _ := v.O.Get(strconv.Itoa(i))
			b.WriteString(ShortDisplay(el))
		}
		b.WriteString("]")
		return b.String()
	}
	return ToString(v)
}

// ShortDisplay renders a value nested in a displayed object or array.
func ShortDisplay(v Value) string {
	switch v.Kind {
	case String:
		return ast.QuoteString(v.S)
	case Object:
		return ClassDisplay(v.O.Class)
	}
	return ToString(v)
}

// ClassDisplay abbreviates a nested object by its class.
func ClassDisplay(class string) string {
	switch class {
	case "Array":
		return "[...]"
	case "Function":
		return "function"
	}
	return "{...}"
}
