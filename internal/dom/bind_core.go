package dom

import "determinacy/internal/core"

// CoreBinding connects a Document to the instrumented interpreter, applying
// the paper's DOM determinacy policy (§4), or the Spec+DetDOM assumption
// (§5.1) when Deterministic is set.
type CoreBinding struct {
	state
	// Deterministic treats all DOM reads and operation results as
	// determinate ("assuming that all properties of DOM objects are
	// determinate, and that operations on the DOM return determinate
	// values" — unsound in general, §5.1).
	Deterministic bool

	a    *core.Analysis
	wrap map[*Node]*core.DObj
	objs [onWindow + 1]*core.DObj
	cur  coreArgs
}

// InstallCore exposes the document to an instrumented interpreter. External
// operations abort counterfactual execution.
func InstallCore(a *core.Analysis, doc *Document, deterministic bool) *CoreBinding {
	b := &CoreBinding{state: newState(doc), a: a, Deterministic: deterministic,
		wrap: map[*Node]*core.DObj{}, cur: coreArgs{a: a}}
	b.objs[onWindow] = a.Global
	a.SetGlobal("window", core.ObjV(a.Global, true))
	installOps(b)
	return b
}

func (b *CoreBinding) object(t target, global string) {
	o := b.a.NewPlainObj()
	if t == onDocument {
		o.Data = b.Doc
	}
	if global != "" {
		b.a.SetGlobal(global, core.ObjV(o, true))
	}
	b.objs[t] = o
}

func (b *CoreBinding) install(o *op) {
	owner := b.objs[o.on]
	switch o.kind {
	case data:
		b.a.SetProp(owner, o.name, b.value(o.run(&b.state, nil, nil), nil))
	case getter:
		owner.DefineGetter(o.name, b.native(o))
	case setter:
		owner.DefineSetter(o.name, b.native(o))
	default:
		b.a.DefNativeOn(owner, o.name, b.native(o), o.effect == External)
	}
}

func (b *CoreBinding) native(o *op) func(*core.Analysis, core.Value, []core.Value) (core.Value, error) {
	return func(_ *core.Analysis, this core.Value, args []core.Value) (core.Value, error) {
		b.cur.vals = args
		return b.value(o.run(&b.state, nodeOfC(this), &b.cur), args), nil
	}
}

// value converts a result, annotating it with the DOM policy: undefined is
// determinate, everything else only under Deterministic.
func (b *CoreBinding) value(r result, args []core.Value) core.Value {
	det := b.Deterministic
	switch r.kind {
	case rNull:
		return core.Value{Kind: core.Null, Det: det}
	case rString:
		return core.StringV(r.s, det)
	case rNumber:
		return core.NumberV(r.n, det)
	case rNode:
		if r.node == nil {
			return core.Value{Kind: core.Null, Det: det}
		}
		return core.ObjV(b.Wrap(r.node), det)
	case rNodes:
		elems := make([]core.Value, len(r.nodes))
		for i, n := range r.nodes {
			elems[i] = b.value(node(n), nil)
		}
		arr := b.a.NewArrayObj(elems)
		if !det {
			b.a.MarkObjectIndeterminate(arr)
		}
		return core.ObjV(arr, det)
	case rArg0:
		return coreArgs{vals: args}.arg(0).WithDet(det)
	case rObject:
		return core.ObjV(b.a.NewPlainObj(), det)
	}
	return core.UndefD
}

// Wrap returns the instrumented object for a node.
func (b *CoreBinding) Wrap(n *Node) *core.DObj {
	if n == nil {
		return nil
	}
	if o, ok := b.wrap[n]; ok {
		return o
	}
	o := b.a.NewObj("Object", b.objs[onElement])
	o.Data = n
	for i := range nodeFields {
		b.a.SetProp(o, nodeFields[i].name, b.value(nodeFields[i].run(&b.state, n, nil), nil))
	}
	b.wrap[n] = o
	return o
}

// RunHandlers fires registered handlers under the instrumented semantics;
// see state.runHandlers.
func (b *CoreBinding) RunHandlers(limit int) (int, error) { return b.runHandlers(b, limit) }

// fire flushes the heap on entry to the handler (§4: "since DOM events can
// fire in any order, we perform a heap flush immediately upon entering an
// event handler") and calls it.
func (b *CoreBinding) fire(h Handler) (bool, error) {
	fn, ok := h.Fn.(core.Value)
	if !ok || !fn.IsCallable() {
		return false, nil
	}
	b.a.FlushHeap("event-handler")
	ev := b.a.NewPlainObj()
	b.a.SetProp(ev, "type", core.StringV(h.Event, b.Deterministic))
	if h.Target != nil {
		b.a.SetProp(ev, "target", b.value(node(h.Target), nil))
	}
	_, err := b.a.CallFunction(fn, core.Value{Kind: core.Undefined, Det: false}, []core.Value{core.ObjV(ev, b.Deterministic)})
	return true, err
}

// coreArgs reads an instrumented call's arguments for the ops table. DOM
// results carry the DOM policy's annotation, so argument determinacy is
// not consulted.
type coreArgs struct {
	a    *core.Analysis
	vals []core.Value
}

func (c coreArgs) arg(i int) core.Value {
	if i < len(c.vals) {
		return c.vals[i]
	}
	return core.UndefD
}

func (c *coreArgs) str(i int) string {
	s, _ := c.a.ToStringPub(c.arg(i))
	return s
}

func (c *coreArgs) num(i int) float64 {
	n, _ := c.a.ToNumberPub(c.arg(i))
	return n
}

func (c *coreArgs) node(i int) *Node { return nodeOfC(c.arg(i)) }
func (c *coreArgs) fn(i int) any     { return c.arg(i) }

func nodeOfC(v core.Value) *Node {
	if v.Kind != core.Object {
		return nil
	}
	n, _ := v.O.Data.(*Node)
	return n
}
