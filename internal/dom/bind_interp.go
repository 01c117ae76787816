package dom

import "determinacy/internal/interp"

// Binding connects a Document to a concrete interpreter.
type Binding struct {
	state
	it   *interp.Interp
	wrap map[*Node]*interp.Obj
	objs [onWindow + 1]*interp.Obj
	cur  concreteArgs
}

// Install exposes the document to the interpreter as the standard globals:
// document, window (aliased to the global object), navigator, location,
// setTimeout and friends.
func Install(it *interp.Interp, doc *Document) *Binding {
	b := &Binding{state: newState(doc), it: it, wrap: map[*Node]*interp.Obj{}}
	b.objs[onWindow] = it.Global
	it.Global.Set("window", interp.ObjVal(it.Global))
	installOps(b)
	return b
}

func (b *Binding) object(t target, global string) {
	o := b.it.NewPlain()
	if t == onDocument {
		o.Data = b.Doc
	}
	if global != "" {
		b.it.Global.Set(global, interp.ObjVal(o))
	}
	b.objs[t] = o
}

func (b *Binding) install(o *op) {
	owner := b.objs[o.on]
	switch o.kind {
	case data:
		owner.Set(o.name, b.value(o.run(&b.state, nil, nil), nil))
	case getter:
		owner.DefineGetter(o.name, b.native(o))
	case setter:
		owner.DefineSetter(o.name, b.native(o))
	default:
		owner.Set(o.name, interp.ObjVal(b.it.NewNative(o.name, b.native(o))))
	}
}

func (b *Binding) native(o *op) interp.NativeFunc {
	return func(_ interp.Host, this interp.Value, args []interp.Value) (interp.Value, error) {
		b.cur = args
		return b.value(o.run(&b.state, nodeOf(this), &b.cur), args), nil
	}
}

func (b *Binding) value(r result, args []interp.Value) interp.Value {
	switch r.kind {
	case rNull:
		return interp.NullVal
	case rString:
		return interp.StringVal(r.s)
	case rNumber:
		return interp.NumberVal(r.n)
	case rNode:
		if r.node == nil {
			return interp.NullVal
		}
		return interp.ObjVal(b.Wrap(r.node))
	case rNodes:
		elems := make([]interp.Value, len(r.nodes))
		for i, n := range r.nodes {
			elems[i] = b.value(node(n), nil)
		}
		return interp.ObjVal(b.it.NewArray(elems))
	case rArg0:
		return concreteArgs(args).arg(0)
	case rObject:
		return interp.ObjVal(b.it.NewPlain())
	}
	return interp.UndefinedVal
}

// Wrap returns the interpreter object for a node, creating it on first use.
func (b *Binding) Wrap(n *Node) *interp.Obj {
	if n == nil {
		return nil
	}
	if o, ok := b.wrap[n]; ok {
		return o
	}
	o := b.it.NewObject(b.objs[onElement])
	o.Data = n
	for i := range nodeFields {
		o.Set(nodeFields[i].name, b.value(nodeFields[i].run(&b.state, n, nil), nil))
	}
	b.wrap[n] = o
	return o
}

// RunHandlers fires registered handlers; see state.runHandlers.
func (b *Binding) RunHandlers(limit int) (int, error) { return b.runHandlers(b, limit) }

func (b *Binding) fire(h Handler) (bool, error) {
	fn, ok := h.Fn.(interp.Value)
	if !ok || !fn.IsCallable() {
		return false, nil
	}
	ev := b.it.NewPlain()
	ev.Set("type", interp.StringVal(h.Event))
	if h.Target != nil {
		ev.Set("target", b.value(node(h.Target), nil))
	}
	_, err := b.it.CallFunction(fn, interp.UndefinedVal, []interp.Value{interp.ObjVal(ev)})
	return true, err
}

// concreteArgs reads a concrete call's arguments for the ops table.
type concreteArgs []interp.Value

func (c concreteArgs) arg(i int) interp.Value {
	if i < len(c) {
		return c[i]
	}
	return interp.UndefinedVal
}

func (c *concreteArgs) str(i int) string  { return interp.ToString(c.arg(i)) }
func (c *concreteArgs) num(i int) float64 { return interp.ToNumber(c.arg(i)) }
func (c *concreteArgs) node(i int) *Node  { return nodeOf(c.arg(i)) }
func (c *concreteArgs) fn(i int) any      { return c.arg(i) }

func nodeOf(v interp.Value) *Node {
	if v.Kind != interp.Object {
		return nil
	}
	n, _ := v.O.Data.(*Node)
	return n
}
