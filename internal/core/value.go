// Package core implements the paper's contribution: the instrumented
// semantics for dynamic determinacy analysis (Figures 7 and 9). It is a
// complete second interpreter for the mini-JS IR in which every value
// carries a determinacy annotation (v! or v?), records can be open or
// closed, the heap supports O(1) epoch-based flushing (§4), and branches
// guarded by indeterminate conditions are handled by post-branch
// indeterminacy marking (rule ÎF1) and counterfactual execution (rule CNTR).
package core

import (
	"strconv"
	"strings"

	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

// Kind aliases the concrete interpreter's value kinds; the two interpreters
// agree on the value universe and differ only in annotations.
type Kind = interp.Kind

// Re-exported kinds for readability inside this package.
const (
	Undefined = interp.Undefined
	Null      = interp.Null
	Bool      = interp.Bool
	Number    = interp.Number
	String    = interp.String
	Object    = interp.Object
)

// Value is an instrumented runtime value v^d: a concrete value plus a
// determinacy flag. Det=true corresponds to v! (same value in every
// execution); Det=false to v? (may differ in other executions).
type Value struct {
	Kind Kind
	B    bool
	N    float64
	S    string
	O    *DObj
	Det  bool
}

// Convenience constructors. The trailing D marks determinate values.
var (
	UndefD = Value{Kind: Undefined, Det: true}
	NullD  = Value{Kind: Null, Det: true}
)

// BoolV returns an annotated boolean.
func BoolV(b, det bool) Value { return Value{Kind: Bool, B: b, Det: det} }

// NumberV returns an annotated number.
func NumberV(n float64, det bool) Value { return Value{Kind: Number, N: n, Det: det} }

// StringV returns an annotated string.
func StringV(s string, det bool) Value { return Value{Kind: String, S: s, Det: det} }

// ObjV returns an annotated object reference.
func ObjV(o *DObj, det bool) Value { return Value{Kind: Object, O: o, Det: det} }

// Indet returns v with its annotation dropped to indeterminate (v?).
func (v Value) Indet() Value { v.Det = false; return v }

// WithDet returns v with determinacy det ∧ v.Det, implementing the paper's
// (v̂^d) annotation application: applying ? forces ?, applying ! keeps the
// existing annotation.
func (v Value) WithDet(det bool) Value {
	v.Det = v.Det && det
	return v
}

// IsCallable reports whether v is a function.
func (v Value) IsCallable() bool {
	return v.Kind == Object && (v.O.Fn != nil || v.O.Native != nil)
}

// prim converts a primitive core value to the concrete representation so
// that the conversion helpers of internal/interp can be reused. An object
// value keeps only its kind, which is all ToBool reads; nothing else may
// be handed one.
func prim(v Value) interp.Value {
	return interp.Value{Kind: v.Kind, B: v.B, N: v.N, S: v.S}
}

// dprop is one instrumented object property: an annotated value plus the
// recency epoch of its last write. The property counts as determinate only
// if its own flag is set and its epoch is not older than the last heap
// flush (§4: "every property has a recency annotation, and is only
// considered determinate if this annotation equals the current epoch").
type dprop struct {
	val      Value
	epoch    uint64
	presence presence
}

// presence is a property cell's existence across executions.
type presence uint8

const (
	present presence = iota
	// maybeAbsent: present here, possibly absent in other executions (it
	// was created under an indeterminate condition, or deleted through an
	// indeterminate property name). It reads as v?, and `in` tests on it
	// are indeterminate.
	maybeAbsent
	// phantom: absent here, possibly present in other executions (a branch
	// deleted it, or a counterfactual created it and was undone). It reads
	// as undefined?, makes `in` tests indeterminate and taints for-in key
	// sets: the paper's total-function view of records, where an undone
	// write leaves r̂(p) = undefined?. Marking leaves a phantom a phantom.
	phantom
)

// DObj is an instrumented object. Openness follows the paper's open records
// {x: v̂, ...}: an object is open if it was live across a heap flush or was
// written through an indeterminate property name (rule ŜTO with d' = ?).
type DObj struct {
	Class string
	Proto *DObj
	// ProtoDet records whether the identity of the prototype link is
	// determinate (a constructor with an indeterminate prototype property
	// produces objects with indeterminate prototype chains).
	ProtoDet bool

	props map[string]dprop
	keys  []string

	// createdEpoch dates the allocation; forcedOpen records rule ŜTO.
	createdEpoch uint64
	forcedOpen   bool

	Fn     *ir.Function
	Env    *DEnv
	Native *DNative

	// Getters and Setters hold accessor properties (used by the DOM
	// emulation). Each accessor is its own determinacy model.
	Getters map[string]func(a *Analysis, this Value, args []Value) (Value, error)
	Setters map[string]func(a *Analysis, this Value, args []Value) (Value, error)

	Data  any
	Alloc int
}

// DefineGetter installs an accessor getter for name.
func (o *DObj) DefineGetter(name string, fn func(a *Analysis, this Value, args []Value) (Value, error)) {
	if o.Getters == nil {
		o.Getters = make(map[string]func(a *Analysis, this Value, args []Value) (Value, error))
	}
	o.Getters[name] = fn
}

// DefineSetter installs an accessor setter for name.
func (o *DObj) DefineSetter(name string, fn func(a *Analysis, this Value, args []Value) (Value, error)) {
	if o.Setters == nil {
		o.Setters = make(map[string]func(a *Analysis, this Value, args []Value) (Value, error))
	}
	o.Setters[name] = fn
}

func (o *DObj) findGetter(name string) (func(a *Analysis, this Value, args []Value) (Value, error), bool) {
	for cur := o; cur != nil; cur = cur.Proto {
		if fn, ok := cur.Getters[name]; ok {
			return fn, true
		}
		if _, ok := cur.props[name]; ok {
			return nil, false
		}
	}
	return nil, false
}

func (o *DObj) findSetter(name string) (func(a *Analysis, this Value, args []Value) (Value, error), bool) {
	for cur := o; cur != nil; cur = cur.Proto {
		if fn, ok := cur.Setters[name]; ok {
			return fn, true
		}
	}
	return nil, false
}

// DNative is a built-in function of the instrumented interpreter. Each
// native is its own determinacy model (§4: "hand-written models that
// conservatively approximate their effects on determinacy information").
type DNative struct {
	Name string
	Fn   func(a *Analysis, this Value, args []Value) (Value, error)
	// IsEval marks the global eval binding.
	IsEval bool
	// External marks natives with effects outside the instrumented heap
	// (e.g. DOM mutation); encountering one during counterfactual execution
	// aborts the counterfactual (§4).
	External bool
}

// DEnv is an instrumented environment frame. Slot determinacy combines the
// stored value's flag with a recency epoch so that an "environment flush"
// (used on indeterminate calls, where full JavaScript closures would let an
// unknown callee write enclosing locals — see DESIGN.md) is O(1).
type DEnv struct {
	Parent *DEnv
	Slots  []Value
	Epochs []uint64
	Fn     *ir.Function
}

func (e *DEnv) at(hops int) *DEnv {
	for i := 0; i < hops; i++ {
		e = e.Parent
	}
	return e
}

// ---------------------------------------------------------------------------
// Object operations (performed through the analysis, which owns the epochs)

// IsOpen reports whether o is an open record under the current heap epoch.
func (a *Analysis) IsOpen(o *DObj) bool {
	return o.forcedOpen || o.createdEpoch < a.heapEpoch
}

// propDet reports the effective determinacy of a property cell.
func (a *Analysis) propDet(p dprop) bool {
	return p.val.Det && p.epoch >= a.heapEpoch && p.presence == present
}

// getOwn reads an own property; det reflects the cell's effective flag, and
// exists reports physical presence (phantoms count as existing with an
// indeterminate undefined value).
func (a *Analysis) getOwn(o *DObj, name string) (v Value, exists bool) {
	p, ok := o.props[name]
	if !ok {
		return Value{}, false
	}
	if p.presence == phantom {
		return Value{Kind: Undefined, Det: false}, true
	}
	v = p.val
	v.Det = a.propDet(p)
	return v, true
}

// setOwn writes an own property, journaling the write in all active branch
// frames and maintaining array length semantics.
func (a *Analysis) setOwn(o *DObj, name string, v Value) {
	if o.Class == "Array" {
		if name == "length" {
			a.setArrayLength(o, v)
			return
		}
		if idx, ok := interp.ArrayIndex(name); ok {
			if cur := a.arrayLength(o); idx >= cur {
				lv := NumberV(float64(idx+1), v.Det)
				a.setRawProp(o, "length", lv)
			}
		}
	}
	a.setRawProp(o, name, v)
}

func (a *Analysis) setRawProp(o *DObj, name string, v Value) {
	a.journalProp(o, name)
	if o.props == nil {
		o.props = make(map[string]dprop)
	}
	if p, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
	} else if p.presence == phantom {
		// A phantom is concretely absent, so this write adds the property:
		// it joins the end of the key order, as in an uninstrumented run,
		// instead of taking the slot the phantom held.
		o.removeKey(name)
		o.keys = append(o.keys, name)
	}
	o.props[name] = dprop{val: v, epoch: a.heapEpoch}
}

// deleteProp removes an own property with journaling.
func (a *Analysis) deleteProp(o *DObj, name string) {
	if _, ok := o.props[name]; !ok {
		return
	}
	a.journalProp(o, name)
	a.rawDelete(o, name)
}

func (a *Analysis) arrayLength(o *DObj) int {
	if p, ok := o.props["length"]; ok && p.presence != phantom && p.val.Kind == Number {
		return int(p.val.N)
	}
	return 0
}

func (a *Analysis) setArrayLength(o *DObj, v Value) {
	f, det := a.toNumber(v)
	n := int(f)
	cur := a.arrayLength(o)
	for i := n; i < cur; i++ {
		a.deleteProp(o, strconv.Itoa(i))
	}
	a.setRawProp(o, "length", Value{Kind: Number, N: float64(n), Det: det})
}

// lookup walks the prototype chain. The result combines the found cell's
// determinacy with the openness of every record inspected on the way: if a
// record on the chain is open, another execution might find the property
// there, so both a hit further up and a miss are indeterminate.
func (a *Analysis) lookup(o *DObj, name string) (v Value, found bool, pathDet bool) {
	pathDet = true
	for cur := o; cur != nil; cur = cur.Proto {
		if p, ok := cur.props[name]; ok {
			if p.presence == phantom {
				// Concretely absent here, but possibly present in other
				// executions: keep walking, with the path tainted.
				pathDet = false
			} else {
				v = p.val
				v.Det = a.propDet(p) && pathDet
				return v, true, pathDet
			}
		}
		if a.IsOpen(cur) {
			pathDet = false
		}
		if !cur.ProtoDet {
			pathDet = false
		}
	}
	return Value{Kind: Undefined, Det: pathDet}, false, pathDet
}

// has reports property presence along the prototype chain, with a
// determinacy flag for the answer.
func (a *Analysis) has(o *DObj, name string) (bool, bool) {
	det := true
	for cur := o; cur != nil; cur = cur.Proto {
		if p, ok := cur.props[name]; ok {
			switch p.presence {
			case phantom:
				det = false // concretely absent here; keep walking
				continue
			case maybeAbsent:
				return true, false
			}
			return true, det
		}
		if a.IsOpen(cur) {
			det = false
		}
		if !cur.ProtoDet {
			det = false
		}
	}
	return false, det
}

// ---------------------------------------------------------------------------
// Conversions over annotated values. Determinacy of a conversion result is
// the determinacy of its input; object-to-primitive conversions additionally
// fold in the determinacy of the object contents they read.

func (a *Analysis) toBool(v Value) bool { return interp.ToBool(prim(v)) }

func (a *Analysis) toNumber(v Value) (float64, bool) {
	p, det := a.operand(v)
	return interp.ToNumber(p), det
}

func (a *Analysis) toString(v Value) (string, bool) {
	p, det := a.operand(v)
	return interp.ToString(p), det
}

// toPrimitive mirrors interp.toPrimitive over instrumented objects; the
// second result is the determinacy of the conversion (an array join reads
// every element, so any indeterminate element taints it).
func (a *Analysis) toPrimitive(v Value) (Value, bool) {
	if v.Kind != Object {
		return v, v.Det
	}
	o := v.O
	switch o.Class {
	case "Array":
		det := v.Det && !a.IsOpen(o)
		if p, ok := o.props["length"]; ok {
			det = det && a.propDet(p)
		}
		s, det := a.join(o, ",", det)
		return StringV(s, det), det
	case "Function":
		name := ""
		if o.Fn != nil {
			name = o.Fn.Name
		} else if o.Native != nil {
			name = o.Native.Name
		}
		return StringV("function "+name+"() { [native or user code] }", v.Det), v.Det
	case "Error":
		name, msg, det, d := "Error", "", v.Det, true
		if nv, found, _ := a.lookup(o, "name"); found {
			name, d = a.toString(nv)
			det = det && d
		}
		if mv, found, _ := a.lookup(o, "message"); found {
			msg, d = a.toString(mv)
			det = det && d
		}
		return StringV(interp.ErrorString(name, msg), det), det
	default:
		return v, v.Det
	}
}

// join renders array elements with sep, undefined and null as "", folding
// every element's determinacy into det.
func (a *Analysis) join(o *DObj, sep string, det bool) (string, bool) {
	n := a.arrayLength(o)
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		el, ok := a.getOwn(o, strconv.Itoa(i))
		if ok {
			det = det && el.Det
		}
		if !ok || el.Kind == Undefined || el.Kind == Null {
			parts = append(parts, "")
			continue
		}
		s, sdet := a.toString(el)
		det = det && sdet
		parts = append(parts, s)
	}
	return strings.Join(parts, sep), det
}

func (a *Analysis) typeOf(v Value) string {
	if v.Kind == Object {
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
	return interp.TypeOf(prim(v))
}

func strictEquals(x, y Value) bool {
	if x.Kind == Object || y.Kind == Object {
		return x.Kind == y.Kind && x.O == y.O
	}
	return interp.StrictEquals(prim(x), prim(y))
}

// looseEquals implements ==. An object compared with a boolean, number or
// string converts to a primitive first; the flag is that conversion's
// determinacy.
func (a *Analysis) looseEquals(x, y Value) (bool, bool) {
	switch {
	case x.Kind == Object && y.Kind == Object:
		return x.O == y.O, true
	case x.Kind == Object && y.Kind > Null:
		p, det := a.operand(x)
		return interp.LooseEquals(p, prim(y)), det
	case y.Kind == Object && x.Kind > Null:
		p, det := a.operand(y)
		return interp.LooseEquals(prim(x), p), det
	case x.Kind == Object || y.Kind == Object:
		return false, true // no object equals null or undefined
	}
	return interp.LooseEquals(prim(x), prim(y)), true
}

// Snapshot converts a value to a fact snapshot.
func Snapshot(v Value) facts.Snapshot {
	switch {
	case v.Kind != Object:
		return interp.Snapshot(prim(v))
	case v.O.Fn != nil:
		return facts.Snapshot{Kind: facts.VFunction, FnIndex: v.O.Fn.Index, Alloc: v.O.Alloc}
	case v.O.Native != nil:
		return facts.Snapshot{Kind: facts.VFunction, Native: v.O.Native.Name, Alloc: v.O.Alloc}
	}
	return facts.Snapshot{Kind: facts.VObject, Alloc: v.O.Alloc}
}

// ToDisplay renders an instrumented value for console output. Annotations
// do not affect concrete output, keeping instrumented and concrete runs
// textually comparable.
func (a *Analysis) ToDisplay(v Value) string {
	if v.Kind == String {
		return v.S
	}
	if v.Kind == Object && v.O.Class == "Object" {
		var b strings.Builder
		b.WriteString("{")
		for _, k := range v.O.keys {
			p := v.O.props[k]
			if p.presence == phantom {
				continue
			}
			if b.Len() > 1 {
				b.WriteString(", ")
			}
			b.WriteString(k)
			b.WriteString(": ")
			b.WriteString(a.shortDisplay(p.val))
		}
		b.WriteString("}")
		return b.String()
	}
	if v.Kind == Object && v.O.Class == "Array" {
		var b strings.Builder
		b.WriteString("[")
		n := a.arrayLength(v.O)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			el, _ := a.getOwn(v.O, strconv.Itoa(i))
			b.WriteString(a.shortDisplay(el))
		}
		b.WriteString("]")
		return b.String()
	}
	s, _ := a.toString(v)
	return s
}

func (a *Analysis) shortDisplay(v Value) string {
	if v.Kind == Object {
		return interp.ClassDisplay(v.O.Class)
	}
	return interp.ShortDisplay(prim(v))
}
