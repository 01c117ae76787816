package pointsto

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"determinacy/internal/dom"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

// setupBuiltins builds the abstract global environment from the two tables
// the runtimes install: interp.Builtins, then the DOM op table. Each native
// becomes an abstract object carrying its declared Summary; each object
// reference, a field link, and X.prototype also the back-link
// X.prototype.constructor; the global object, the prototypes and the
// namespace objects become special objects. The DOM is shallow: one
// abstract element stands for all elements and one node list for all
// lists, matching the coarse DOM treatment of the paper's baseline [30].
// It runs once per process, into builtinTemplate.
func (a *analysis) setupBuiltins() {
	special := func(name string) ObjID {
		return a.newObject(&Object{Kind: KSpecial, Name: name})
	}
	native := func(owner ObjID, name string, sum interp.Summary) ObjID {
		o := a.newObject(&Object{Kind: KNative, Name: name, sum: sum})
		a.addObj(a.namedField(owner, name), o)
		return o
	}

	var slots [interp.NumSlots]ObjID
	for k, name := range interp.PrototypeNames {
		slots[k] = special(strings.TrimSuffix(name, ".prototype"))
		if k != interp.SlotObjectProto {
			a.addObj(a.protoNode(slots[k]), slots[interp.SlotObjectProto])
		}
	}
	a.globalObj = special("Global")
	a.addObj(a.protoNode(a.globalObj), slots[interp.SlotObjectProto])
	slots[interp.SlotGlobal] = a.globalObj
	a.objectProto, a.functionProto, a.arrayProto = slots[interp.SlotObjectProto], slots[interp.SlotFunctionProto], slots[interp.SlotArrayProto]

	for i := range interp.Builtins {
		b := &interp.Builtins[i]
		owner, slot, ref := b.Slots()
		var o ObjID
		switch {
		case b.Fn != nil:
			o = native(slots[owner], b.Name, b.Summary)
			if b.IsEval() {
				a.evalObj = o
			}
		case ref >= 0:
			o = slots[ref]
			a.addObj(a.namedField(slots[owner], b.Name), o)
			if b.Name == "prototype" {
				a.addObj(a.namedField(o, "constructor"), slots[owner])
				a.ctorProto[slots[owner]] = o
			}
		case b.Ref != "":
			o = special(capitalize(b.Name) + "NS")
			a.addObj(a.namedField(slots[owner], b.Name), o)
		default:
			continue // a primitive data property
		}
		if slot >= 0 {
			slots[slot] = o
		}
	}
	native(a.arrayProto, unshift, interp.StoresArgs)

	a.domElement, a.domNodeList, a.domEvent = special("DOMElement"), special("DOMNodeList"), special("DOMEvent")
	a.addObj(a.protoNode(a.domNodeList), a.arrayProto)
	a.addObj(a.wildNode(a.domNodeList), a.domElement)
	a.addObj(a.namedField(a.domEvent, "target"), a.domElement)
	owners := map[string]ObjID{"": a.domElement}
	dom.StaticOps(func(global, name string, method bool, sum interp.Summary) {
		owner, ok := owners[global]
		if !ok {
			// The first entry on an object binds its global; window
			// is the global object itself.
			owner = a.globalObj
			if global != "window" {
				owner = special(capitalize(global))
			}
			owners[global] = owner
			a.addObj(a.namedField(a.globalObj, global), owner)
		}
		switch {
		case method:
			native(owner, name, sum)
		case sum == interp.ReturnsElement:
			a.addObj(a.namedField(owner, name), a.domElement)
		case sum == interp.ReturnsNodeList:
			a.addObj(a.namedField(owner, name), a.domNodeList)
		}
	})
}

// builtinTemplate is the state setupBuiltins leaves, built once per process
// on first use. Every solve starts from it (startFrom) and never writes
// it, so concurrent solves share it.
var builtinTemplate = sync.OnceValue(buildTemplate)

func buildTemplate() *analysis {
	t := &analysis{fieldIDs: map[string]int{}, fieldNodes: map[fieldKey]int{},
		builtins: builtins{ctorProto: map[ObjID]ObjID{}}}
	t.setupBuiltins()
	// startFrom copies a node's points-to set, delta and worklist flag
	// only; a builtin edge or constraint would be silently dropped.
	for n, nd := range t.nodes {
		if len(nd.copies.ids) > 0 || len(nd.constraints) > 0 || len(nd.constrKeys) > 0 {
			panic(fmt.Sprintf("pointsto: builtin node %d has copy edges or constraints", n))
		}
	}
	for o, on := range t.objNodes {
		if len(on.wildLoads.ids) > 0 {
			panic(fmt.Sprintf("pointsto: builtin object %s has wildcard loads", t.objs[o]))
		}
	}
	return t
}

// startFrom sets a's initial state to the template t's. What a solve can
// write is copied, a few blocks for all of it: the objects, the nodes with
// their points-to words and deltas, the per-object node tables and the
// worklist. Every piece of a block is capacity-capped (carve), so an
// append moves it instead of writing into its neighbour. t's interned
// names and field nodes become the read-only lower layer of a's, and the
// builtin IDs and constructor prototypes are shared.
func (a *analysis) startFrom(t *analysis) {
	objs := make([]Object, len(t.objs))
	a.objs = make([]*Object, len(t.objs))
	for i, o := range t.objs {
		objs[i] = *o
		a.objs[i] = &objs[i]
	}

	var numWords, numDelta int
	for _, tn := range t.nodes {
		numWords += len(tn.pts)
		numDelta += len(tn.delta)
	}
	nodes := make([]node, len(t.nodes))
	words := make(bitset, 0, numWords)
	deltas := make([]ObjID, 0, numDelta)
	a.nodes = make([]*node, len(t.nodes))
	for i, tn := range t.nodes {
		nd := &nodes[i]
		nd.pts = carve(&words, tn.pts)
		nd.delta = carve(&deltas, tn.delta)
		nd.inWorklist = tn.inWorklist
		a.nodes[i] = nd
	}

	var numFields int
	for _, on := range t.objNodes {
		numFields += len(on.fields)
	}
	fields := make([]objField, 0, numFields)
	a.objNodes = make([]objNodes, len(t.objNodes))
	for i, on := range t.objNodes {
		a.objNodes[i] = objNodes{proto: on.proto, wild: on.wild, fields: carve(&fields, on.fields)}
	}

	a.worklist = slices.Clone(t.worklist)
	a.worklistHWM = t.worklistHWM
	a.baseFieldIDs, a.baseFieldNodes = t.fieldIDs, t.fieldNodes
	a.baseObjs, a.baseFields = int32(len(t.objs)), int32(len(t.fieldIDs))
	a.builtins = t.builtins
}

// carve appends s to block, which has room for it, and returns the copy,
// capacity-capped.
func carve[S ~[]E, E any](block *S, s S) S {
	i := len(*block)
	*block = append(*block, s...)
	return (*block)[i:len(*block):len(*block)]
}

// unshift is Array.prototype.unshift, the one native the static model has
// and the runtimes lack. The baseline's wildcard reads of Array.prototype
// reach it, so it is part of the Table 1 behaviour: without it the
// completing cells move (jQuery 1.0 spec 8677 → 8394 propagations).
const unshift = "unshift"

func capitalize(s string) string { return strings.ToUpper(s[:1]) + s[1:] }

// processFunction translates a function body into constraints, once. It is
// invoked when a function first becomes reachable: at startup for the top
// level and from call resolution otherwise, so dead code costs nothing.
func (a *analysis) processFunction(fn *ir.Function) {
	if a.processed[fn.Index] {
		return
	}
	a.processed[fn.Index] = true
	a.block(fn, fn.Body)
}

// defFn returns the function whose slots a VarRef resolves into.
func defFn(fn *ir.Function, hops int) *ir.Function {
	for i := 0; i < hops; i++ {
		fn = fn.Parent
	}
	return fn
}

func (a *analysis) block(fn *ir.Function, b *ir.Block) {
	if b == nil {
		return
	}
	for _, in := range b.Instrs {
		a.instr(fn, in)
	}
}

func (a *analysis) instr(fn *ir.Function, in ir.Instr) {
	switch in := in.(type) {
	case *ir.Const:
		if in.Val.Kind == ir.LitString {
			s := in.Val.Str
			a.regStr[regKey{fn.Index, in.Dst}] = &s
		} else {
			a.regStr[regKey{fn.Index, in.Dst}] = nil
		}
	case *ir.Move:
		a.regStr[regKey{fn.Index, in.Dst}] = joinStr(a.regStr[regKey{fn.Index, in.Dst}], a.regStr[regKey{fn.Index, in.Src}], a.seen(fn, in.Dst))
		a.addCopy(a.regNode(fn, in.Src), a.regNode(fn, in.Dst))
	case *ir.LoadVar:
		df := defFn(fn, in.Var.Hops)
		a.addCopy(a.varNode(df, in.Var.Slot), a.regNode(fn, in.Dst))
	case *ir.StoreVar:
		df := defFn(fn, in.Var.Hops)
		a.addCopy(a.regNode(fn, in.Src), a.varNode(df, in.Var.Slot))
	case *ir.LoadGlobal:
		a.addCopy(a.namedField(a.globalObj, in.Name), a.regNode(fn, in.Dst))
	case *ir.StoreGlobal:
		a.addCopy(a.regNode(fn, in.Src), a.namedField(a.globalObj, in.Name))
	case *ir.MakeClosure:
		fo := a.funcObject(in.ID, in.Fn)
		a.addObj(a.regNode(fn, in.Dst), fo)
	case *ir.MakeObject:
		o := a.allocObject(in.ID, "Object")
		a.addObj(a.protoNode(o), a.objectProto)
		for _, p := range in.Props {
			a.addCopy(a.regNode(fn, p.Val), a.namedField(o, p.Key))
		}
		a.addObj(a.regNode(fn, in.Dst), o)
	case *ir.MakeArray:
		o := a.allocObject(in.ID, "Array")
		a.addObj(a.protoNode(o), a.arrayProto)
		for i, e := range in.Elems {
			a.addCopy(a.regNode(fn, e), a.namedField(o, strconv.Itoa(i)))
		}
		a.addObj(a.regNode(fn, in.Dst), o)
	case *ir.GetField:
		a.addLoad(a.regNode(fn, in.Obj), a.fieldID(in.Name), a.regNode(fn, in.Dst))
	case *ir.GetProp:
		a.addLoad(a.regNode(fn, in.Obj), a.propField(fn, in.Prop), a.regNode(fn, in.Dst))
	case *ir.SetField:
		a.addStore(a.regNode(fn, in.Obj), a.fieldID(in.Name), a.regNode(fn, in.Src))
	case *ir.SetProp:
		a.addStore(a.regNode(fn, in.Obj), a.propField(fn, in.Prop), a.regNode(fn, in.Src))
	case *ir.BinOp, *ir.UnOp, *ir.DelField, *ir.DelProp:
		// No pointer flow; results are primitives.
	case *ir.Call:
		ci := &callInfo{site: in.ID, fn: fn, args: in.Args, this: in.This, dst: in.Dst}
		a.callSites = append(a.callSites, ci)
		a.addConstraint(a.regNode(fn, in.Fn), &callC{ci: ci})
	case *ir.New:
		ci := &callInfo{site: in.ID, fn: fn, args: in.Args, this: ir.NoReg, dst: in.Dst, isNew: true}
		a.callSites = append(a.callSites, ci)
		a.addConstraint(a.regNode(fn, in.Fn), &callC{ci: ci})
	case *ir.Return:
		if in.Src != ir.NoReg {
			a.addCopy(a.regNode(fn, in.Src), a.retNode(fn))
		}
	case *ir.Throw:
		a.addCopy(a.regNode(fn, in.Src), a.thrownNode())
	case *ir.If:
		a.block(fn, in.Then)
		a.block(fn, in.Else)
	case *ir.While:
		a.block(fn, in.CondBlock)
		a.block(fn, in.Body)
		a.block(fn, in.Update)
	case *ir.ForIn:
		a.block(fn, in.Body)
	case *ir.Try:
		a.block(fn, in.Body)
		if in.HasCatch {
			if in.GlobalCatch != "" {
				a.addCopy(a.thrownNode(), a.namedField(a.globalObj, in.GlobalCatch))
			} else {
				df := defFn(fn, in.CatchVar.Hops)
				a.addCopy(a.thrownNode(), a.varNode(df, in.CatchVar.Slot))
			}
		}
		a.block(fn, in.Catch)
		a.block(fn, in.Finally)
	}
}

// propField is the field a computed property access reads or writes: the
// register's constant string when it holds one, the wildcard otherwise.
func (a *analysis) propField(fn *ir.Function, prop ir.Reg) int {
	if s := a.regStr[regKey{fn.Index, prop}]; s != nil {
		return a.fieldID(*s)
	}
	return wildcard
}

// seen reports whether a register already had a string constant recorded
// (two joins at a merge degrade to unknown unless equal).
func (a *analysis) seen(fn *ir.Function, r ir.Reg) bool {
	_, ok := a.regStr[regKey{fn.Index, r}]
	return ok
}

func joinStr(old, new *string, hadOld bool) *string {
	if !hadOld {
		return new
	}
	if old == nil || new == nil {
		return nil
	}
	if *old == *new {
		return old
	}
	return nil
}

func (a *analysis) thrownNode() int {
	if a.thrown < 0 {
		a.thrown = a.newNode()
	}
	return a.thrown
}

// funcObject materializes the function object and its .prototype object for
// a closure site.
func (a *analysis) funcObject(site ir.ID, fn *ir.Function) ObjID {
	if fo, ok := a.funcObjOf[site]; ok {
		return fo
	}
	fo := a.newObject(&Object{Kind: KFunc, Site: site, Fn: fn})
	a.funcObjOf[site] = fo
	a.addObj(a.protoNode(fo), a.functionProto)
	po := a.newObject(&Object{Kind: KProto, Site: site, Name: fn.Name + ".prototype"})
	a.addObj(a.protoNode(po), a.objectProto)
	a.addObj(a.namedField(fo, "prototype"), po)
	a.addObj(a.namedField(po, "constructor"), fo)
	return fo
}

func (a *analysis) allocObject(site ir.ID, class string) ObjID {
	if o, ok := a.allocObjOf[site]; ok {
		return o
	}
	o := a.newObject(&Object{Kind: KAlloc, Site: site, Name: class})
	a.allocObjOf[site] = o
	return o
}

// ---------------------------------------------------------------------------
// Constraints

// loadC is dst ⊇ o.field (or all fields for the wildcard), following
// prototype chains.
type loadC struct {
	field int // interned, or wildcard
	dst   int
}

func (c *loadC) apply(a *analysis, o ObjID) {
	if c.field == wildcard {
		// A wildcard load into dst reaches o once. Its first arrival adds
		// every edge below, and fieldNode adds those of later fields, so a
		// repeat arrival (the same load attached at several nodes holding
		// o) has nothing left to do.
		if !a.objNodes[o].wildLoads.add(c.dst, len(a.nodes)) {
			return
		}
		for _, f := range a.objNodes[o].fields {
			a.addCopy(int(f.node), c.dst)
		}
	} else {
		a.addCopy(a.fieldNode(o, c.field), c.dst)
	}
	a.addCopy(a.wildNode(o), c.dst)
	// Follow the prototype chain: the same load applies to every prototype
	// this object may have.
	a.addLoad(a.protoNode(o), c.field, c.dst)
}

// storeC is o.field ⊇ src (or the object's wildcard node for the
// wildcard).
type storeC struct {
	field int // interned, or wildcard
	src   int
}

func (c *storeC) apply(a *analysis, o ObjID) {
	if c.field == wildcard {
		a.addCopy(c.src, a.wildNode(o))
		return
	}
	a.addCopy(c.src, a.fieldNode(o, c.field))
}

// callC resolves callees arriving at a call site's function node.
type callC struct {
	ci *callInfo
}

func (c *callC) apply(a *analysis, o ObjID) {
	ci := c.ci
	obj := a.objs[o]
	switch obj.Kind {
	case KFunc:
		if ci.resolved.add(int(o)) {
			a.wireCall(ci, o, obj.Fn)
		}
	case KNative:
		if ci.resolved.add(int(o)) {
			a.wireNative(ci, obj)
		}
	default:
		// Calling a non-function: no call edge (a runtime TypeError).
	}
}

// wireCall connects arguments, receiver, return and self-reference for a
// user-function callee.
func (a *analysis) wireCall(ci *callInfo, funcObj ObjID, callee *ir.Function) {
	a.processFunction(callee)
	for i := range callee.Params {
		if i < len(ci.args) {
			slot := paramSlotIdx(callee, i)
			a.addCopy(a.regNode(ci.fn, ci.args[i]), a.varNode(callee, slot))
		}
	}
	if callee.SelfSlot >= 0 {
		a.addObj(a.varNode(callee, callee.SelfSlot), funcObj)
	}
	if ci.isNew {
		// The new-site object gets the callee's .prototype objects as
		// prototypes, becomes the receiver, and flows to the result
		// (together with any returned objects, per JS semantics).
		site := a.allocObject(ci.site, "New")
		a.addCopy(a.namedField(funcObj, "prototype"), a.protoNode(site))
		if callee.ThisSlot >= 0 {
			a.addObj(a.varNode(callee, callee.ThisSlot), site)
		}
		a.addObj(a.regNode(ci.fn, ci.dst), site)
		a.addCopy(a.retNode(callee), a.regNode(ci.fn, ci.dst))
		return
	}
	if callee.ThisSlot >= 0 {
		if ci.this != ir.NoReg {
			a.addCopy(a.regNode(ci.fn, ci.this), a.varNode(callee, callee.ThisSlot))
		} else {
			a.addObj(a.varNode(callee, callee.ThisSlot), a.globalObj)
		}
	}
	a.addCopy(a.retNode(callee), a.regNode(ci.fn, ci.dst))
}

func paramSlotIdx(fn *ir.Function, i int) int {
	name := fn.Params[i]
	for s, n := range fn.SlotNames {
		if n == name {
			return s
		}
	}
	return i
}

// wireNative models a call to a builtin by its declared Summary. Opaque
// natives return primitives and have no pointer effects — the standard
// baseline treatment (string semantics are exactly what the analysis
// cannot see). eval is opaque too: static analysis cannot see eval'd
// code, and the site is recorded in Result.EvalSites.
func (a *analysis) wireNative(ci *callInfo, obj *Object) {
	switch obj.sum {
	case interp.CallsThis:
		// f.call(this, ...args): the receiver of the .call is the function.
		if ci.this == ir.NoReg {
			return
		}
		derived := ci.derived()
		if len(ci.args) > 0 {
			derived.this = ci.args[0]
			derived.args = ci.args[1:]
		}
		a.addConstraint(a.regNode(ci.fn, ci.this), &callC{ci: derived})
	case interp.AppliesThis:
		// f.apply(this, arr): argument values are approximated by the
		// array's fields flowing to every parameter (coarse but sound for
		// the object graph).
		if ci.this == ir.NoReg {
			return
		}
		derived := ci.derived()
		if len(ci.args) > 0 {
			derived.this = ci.args[0]
		}
		a.addConstraint(a.regNode(ci.fn, ci.this), &applyC{ci: derived, arr: argReg(ci, 1)})
	case interp.StoresArgs:
		if ci.this != ir.NoReg {
			for _, arg := range ci.args {
				a.addStore(a.regNode(ci.fn, ci.this), wildcard, a.regNode(ci.fn, arg))
			}
		}
	case interp.LoadsElement:
		if ci.this != ir.NoReg {
			a.addLoad(a.regNode(ci.fn, ci.this), wildcard, a.regNode(ci.fn, ci.dst))
		}
	case interp.CallsBack:
		if ci.this != ir.NoReg && len(ci.args) > 0 {
			a.addConstraint(a.regNode(ci.fn, ci.args[0]), &callbackC{elems: a.regNode(ci.fn, ci.this)})
		}
	case interp.ReturnsElement:
		a.addObj(a.regNode(ci.fn, ci.dst), a.domElement)
	case interp.ReturnsNodeList:
		a.addObj(a.regNode(ci.fn, ci.dst), a.domNodeList)
	case interp.CallsLater:
		if len(ci.args) > 0 {
			a.addConstraint(a.regNode(ci.fn, ci.args[0]), &callC{ci: ci.derived()})
		}
	case interp.Listens:
		if len(ci.args) > 1 {
			a.addConstraint(a.regNode(ci.fn, ci.args[1]), &eventHandlerC{ci: ci.derived()})
		}
	case interp.Constructs:
		o := a.allocObject(ci.site, obj.Name)
		a.addObj(a.protoNode(o), a.ctorProto[obj.ID])
		a.addObj(a.regNode(ci.fn, ci.dst), o)
	}
}

// derived is a call a native makes at ci's site, with no receiver or
// arguments until the caller sets them.
func (ci *callInfo) derived() *callInfo {
	return &callInfo{site: ci.site, fn: ci.fn, dst: ci.dst, this: ir.NoReg}
}

func argReg(ci *callInfo, i int) int {
	if i < len(ci.args) {
		return int(ci.args[i])
	}
	return -1
}

// applyC wires f.apply: functions arriving at the node are invoked with
// array-element arguments.
type applyC struct {
	ci  *callInfo
	arr int // register index of the argument array, or -1
}

func (c *applyC) apply(a *analysis, o ObjID) {
	obj := a.objs[o]
	if obj.Kind != KFunc {
		if obj.Kind == KNative {
			a.wireNative(c.ci, obj)
		}
		return
	}
	if !c.ci.resolved.add(int(o)) {
		return
	}
	callee := obj.Fn
	a.processFunction(callee)
	if c.arr >= 0 {
		// Every element of the array may flow to every parameter.
		for i := range callee.Params {
			slot := paramSlotIdx(callee, i)
			a.addLoad(a.regNode(c.ci.fn, ir.Reg(c.arr)), wildcard, a.varNode(callee, slot))
		}
	}
	if callee.ThisSlot >= 0 && c.ci.this != ir.NoReg {
		a.addCopy(a.regNode(c.ci.fn, c.ci.this), a.varNode(callee, callee.ThisSlot))
	}
	a.addCopy(a.retNode(callee), a.regNode(c.ci.fn, c.ci.dst))
}

// callbackC invokes array-iteration callbacks with the array's contents.
type callbackC struct {
	elems int // node holding the array objects
}

func (c *callbackC) apply(a *analysis, o ObjID) {
	obj := a.objs[o]
	if obj.Kind != KFunc {
		return
	}
	callee := obj.Fn
	a.processFunction(callee)
	if len(callee.Params) > 0 {
		slot := paramSlotIdx(callee, 0)
		a.addLoad(c.elems, wildcard, a.varNode(callee, slot))
	}
	if callee.ThisSlot >= 0 {
		a.addObj(a.varNode(callee, callee.ThisSlot), a.globalObj)
	}
}

// eventHandlerC invokes DOM event handlers with an opaque event object.
type eventHandlerC struct {
	ci *callInfo
}

func (c *eventHandlerC) apply(a *analysis, o ObjID) {
	obj := a.objs[o]
	if obj.Kind != KFunc {
		return
	}
	if !c.ci.resolved.add(int(o)) {
		return
	}
	callee := obj.Fn
	a.processFunction(callee)
	if len(callee.Params) > 0 {
		a.addObj(a.varNode(callee, paramSlotIdx(callee, 0)), a.domEvent)
	}
	if callee.ThisSlot >= 0 {
		a.addObj(a.varNode(callee, callee.ThisSlot), a.domElement)
	}
}
