package dom

import (
	"fmt"

	"determinacy/internal/interp"
)

// The DOM's operations are written once, over *Node and plain Go values,
// in the ops table below. The two bindings (bind_interp.go for the concrete
// interpreter, bind_core.go for the instrumented one) only adapt values:
// they read arguments through the args interface, turn results into their
// interpreter's values, and install the table in order.

// Effect tags a DOM operation for counterfactual execution (§4).
type Effect uint8

const (
	// Read operations only read the document; they may run during
	// counterfactual execution.
	Read Effect = iota
	// External operations change host state outside the instrumented heap;
	// reaching one during counterfactual execution aborts it.
	External
)

// target is the object an operation is installed on.
type target uint8

const (
	onElement target = iota // the prototype shared by all element wrappers
	onDocument
	onNavigator
	onLocation
	onWindow // the global object
)

type opKind uint8

const (
	method opKind = iota
	getter
	setter
	data // a property set once, to the result of run
)

// op is one DOM operation or property. sum is the static points-to
// model's abstract summary: of a call for a method, of the value for a
// getter or data property.
type op struct {
	on     target
	kind   opKind
	name   string
	effect Effect
	sum    interp.Summary
	run    func(s *state, this *Node, in args) result
}

// args reads a call's arguments, whatever the interpreter's value type.
type args interface {
	str(i int) string  // ToString of argument i
	num(i int) float64 // ToNumber of argument i
	node(i int) *Node  // the node argument i wraps, or nil
	fn(i int) any      // argument i itself, kept as a handler's Fn
}

type resultKind uint8

const (
	rUndefined resultKind = iota // always determinate
	rNull
	rString
	rNumber
	rNode   // null for a nil node
	rNodes  // a fresh array of wrappers
	rArg0   // the first argument, passed through
	rObject // a fresh plain object
)

// result is an operation's return value, before a binding converts it.
// Every result except undefined is a DOM read or operation result, and so
// indeterminate unless the binding is Deterministic (§4, §5.1).
type result struct {
	kind  resultKind
	s     string
	n     float64
	node  *Node
	nodes []*Node
}

func str(s string) result     { return result{kind: rString, s: s} }
func node(n *Node) result     { return result{kind: rNode, node: n} }
func nodes(ns []*Node) result { return result{kind: rNodes, nodes: ns} }

var (
	undefined = result{kind: rUndefined}
	null      = result{kind: rNull}
)

// state is the interpreter-independent half of a binding: the document and
// the timers registered on it.
type state struct {
	Doc       *Document
	nextTimer int
	cancelled map[int]bool
}

func newState(doc *Document) state { return state{Doc: doc, cancelled: map[int]bool{}} }

func (s *state) timer(kind string, in args) result {
	s.nextTimer++
	s.Doc.Handlers = append(s.Doc.Handlers, Handler{Kind: kind, Fn: in.fn(0), TimerID: s.nextTimer})
	return result{kind: rNumber, n: float64(s.nextTimer)}
}

func clearTimer(s *state, _ *Node, in args) result {
	s.cancelled[int(in.num(0))] = true
	return undefined
}

// listen registers an event handler on the element this.
func listen(s *state, this *Node, in args) result {
	s.Doc.Handlers = append(s.Doc.Handlers, Handler{Kind: "event", Event: in.str(0), Target: this, Fn: in.fn(1)})
	return undefined
}

// listenGlobal registers a window or document event handler.
func listenGlobal(s *state, _ *Node, in args) result { return listen(s, nil, in) }

// getString is a string-valued element getter, "" off an element.
func getString(get func(*Node) string) func(*state, *Node, args) result {
	return func(_ *state, this *Node, _ args) result {
		if this == nil {
			return str("")
		}
		return str(get(this))
	}
}

// setString is a string-valued element setter, a no-op off an element.
func setString(set func(d *Document, n *Node, v string)) func(*state, *Node, args) result {
	return func(s *state, this *Node, in args) result {
		if this != nil {
			set(s.Doc, this, in.str(0))
		}
		return undefined
	}
}

// ops is the DOM, in install order. The order fixes allocation numbers,
// which rendered facts print, so both bindings walk it as is.
var ops = []op{
	{on: onElement, name: "getElementsByTagName", effect: Read, sum: interp.ReturnsNodeList, run: func(_ *state, this *Node, in args) result {
		if this == nil {
			return nodes(nil)
		}
		return nodes(this.descendants(in.str(0), nil))
	}},
	{on: onElement, name: "appendChild", effect: External, sum: interp.ReturnsElement, run: func(s *state, this *Node, in args) result {
		if child := in.node(0); this != nil && child != nil {
			s.Doc.Append(this, child)
		}
		return result{kind: rArg0}
	}},
	{on: onElement, name: "removeChild", effect: External, sum: interp.ReturnsElement, run: func(s *state, this *Node, in args) result {
		if child := in.node(0); this != nil && child != nil {
			s.Doc.Remove(this, child)
		}
		return result{kind: rArg0}
	}},
	{on: onElement, name: "setAttribute", effect: External, run: func(s *state, this *Node, in args) result {
		if this != nil {
			if name, val := in.str(0), in.str(1); name == "id" {
				s.Doc.SetID(this, val)
			} else {
				this.Attrs[name] = val
			}
		}
		return undefined
	}},
	{on: onElement, name: "getAttribute", effect: Read, run: func(_ *state, this *Node, in args) result {
		if this == nil {
			return null
		}
		name := in.str(0)
		if name == "id" {
			return str(this.ID)
		}
		if v, ok := this.Attrs[name]; ok {
			return str(v)
		}
		return null
	}},
	{on: onElement, name: "addEventListener", effect: External, sum: interp.Listens, run: listen},
	{on: onElement, name: "attachEvent", effect: External, sum: interp.Listens, run: listen},
	{on: onElement, name: "removeEventListener", effect: Read, run: func(*state, *Node, args) result { return undefined }},
	// Live accessor properties. The interpreters' accessor paths do not
	// consult effect: core aborts a counterfactual at every setter, so the
	// External tag on setters only documents what they do.
	{on: onElement, kind: getter, name: "innerHTML", run: getString((*Node).InnerHTML)},
	{on: onElement, kind: setter, name: "innerHTML", effect: External, run: setString((*Document).SetInnerHTML)},
	{on: onElement, kind: getter, name: "id", run: getString(func(n *Node) string { return n.ID })},
	{on: onElement, kind: setter, name: "id", effect: External, run: setString((*Document).SetID)},
	{on: onElement, kind: getter, name: "firstChild", sum: interp.ReturnsElement, run: func(_ *state, this *Node, _ args) result {
		if this == nil || len(this.Children) == 0 {
			return null
		}
		return node(this.Children[0])
	}},
	{on: onElement, kind: getter, name: "parentNode", sum: interp.ReturnsElement, run: func(_ *state, this *Node, _ args) result {
		if this == nil {
			return null
		}
		return node(this.Parent)
	}},
	{on: onElement, kind: getter, name: "childNodes", sum: interp.ReturnsNodeList, run: func(_ *state, this *Node, _ args) result {
		if this == nil {
			return nodes(nil)
		}
		return nodes(this.Children)
	}},
	{on: onElement, kind: getter, name: "value", run: getString(func(n *Node) string { return n.Attrs["value"] })},
	{on: onElement, kind: setter, name: "value", effect: External, run: setString(func(_ *Document, n *Node, v string) { n.Attrs["value"] = v })},

	{on: onDocument, name: "getElementById", effect: Read, sum: interp.ReturnsElement, run: func(s *state, _ *Node, in args) result {
		return node(s.Doc.ByID(in.str(0)))
	}},
	{on: onDocument, name: "getElementsByTagName", effect: Read, sum: interp.ReturnsNodeList, run: func(s *state, _ *Node, in args) result {
		return nodes(s.Doc.ByTag(in.str(0)))
	}},
	{on: onDocument, name: "createElement", effect: External, sum: interp.ReturnsElement, run: func(s *state, _ *Node, in args) result {
		return node(s.Doc.NewNode(in.str(0), ""))
	}},
	{on: onDocument, name: "createTextNode", effect: External, sum: interp.ReturnsElement, run: func(s *state, _ *Node, in args) result {
		n := s.Doc.NewNode("#text", "")
		n.Text = in.str(0)
		return node(n)
	}},
	{on: onDocument, name: "write", effect: External, run: func(s *state, _ *Node, in args) result {
		s.Doc.SetInnerHTML(s.Doc.Body, s.Doc.Body.InnerHTML()+in.str(0))
		return undefined
	}},
	{on: onDocument, name: "addEventListener", effect: External, sum: interp.Listens, run: listenGlobal},
	{on: onDocument, name: "attachEvent", effect: External, sum: interp.Listens, run: listenGlobal},
	{on: onDocument, kind: data, name: "title", run: func(s *state, _ *Node, _ args) result { return str(s.Doc.Title) }},
	{on: onDocument, kind: data, name: "cookie", run: func(*state, *Node, args) result { return str("") }},
	{on: onDocument, kind: data, name: "readyState", run: func(*state, *Node, args) result { return str("loading") }},
	{on: onDocument, kind: data, name: "body", sum: interp.ReturnsElement, run: func(s *state, _ *Node, _ args) result { return node(s.Doc.Body) }},
	{on: onDocument, kind: data, name: "documentElement", sum: interp.ReturnsElement, run: func(s *state, _ *Node, _ args) result { return node(s.Doc.Root) }},

	{on: onNavigator, kind: data, name: "userAgent", run: func(s *state, _ *Node, _ args) result { return str(s.Doc.UserAgent) }},
	{on: onNavigator, kind: data, name: "appName", run: func(*state, *Node, args) result { return str("Netscape") }},
	{on: onLocation, kind: data, name: "href", run: func(s *state, _ *Node, _ args) result { return str(s.Doc.URL) }},
	{on: onLocation, kind: data, name: "protocol", run: func(*state, *Node, args) result { return str("http:") }},

	{on: onWindow, name: "setTimeout", effect: External, sum: interp.CallsLater, run: func(s *state, _ *Node, in args) result { return s.timer("timeout", in) }},
	{on: onWindow, name: "setInterval", effect: External, sum: interp.CallsLater, run: func(s *state, _ *Node, in args) result { return s.timer("interval", in) }},
	{on: onWindow, name: "clearTimeout", effect: External, run: clearTimer},
	{on: onWindow, name: "clearInterval", effect: External, run: clearTimer},
	{on: onWindow, name: "addEventListener", effect: External, sum: interp.Listens, run: listenGlobal},
	{on: onWindow, name: "attachEvent", effect: External, sum: interp.Listens, run: listenGlobal},
}

// nodeFields are each element wrapper's own properties, set in this order
// when the wrapper is created.
var nodeFields = []op{
	{kind: data, name: "tagName", run: func(_ *state, n *Node, _ args) result { return str(upper(n.Tag)) }},
	{kind: data, name: "nodeName", run: func(_ *state, n *Node, _ args) result { return str(upper(n.Tag)) }},
	{kind: data, name: "nodeType", run: func(*state, *Node, args) result { return result{kind: rNumber, n: 1} }},
	{kind: data, name: "style", run: func(*state, *Node, args) result { return result{kind: rObject} }},
}

// globalNames names the global bound to each target's object; the element
// prototype has none, and window is the global object itself.
var globalNames = [...]string{onDocument: "document", onNavigator: "navigator", onLocation: "location", onWindow: "window"}

// StaticOps calls f for each ops table entry but the setters, in install
// order, as a static model sees it: global is bound to the object the entry
// is installed on ("window" is the global object, "" the element
// prototype); method tells an operation from a getter or data property;
// sum is the abstract summary.
func StaticOps(f func(global, name string, method bool, sum interp.Summary)) {
	for _, o := range ops {
		if o.kind != setter {
			f(globalNames[o.on], o.name, o.kind == method, o.sum)
		}
	}
}

// binder is what the shared install walk and handler loop need from a
// binding.
type binder interface {
	// object creates the object for target t (bound to global name, if
	// any) before its first operation is installed.
	object(t target, global string)
	install(o *op)
	// fire runs one handler; ran is false if h.Fn is not callable.
	fire(h Handler) (ran bool, err error)
}

// installOps walks ops in order, creating each target's object on first
// use: the element prototype, then document, navigator and location, then
// the window functions.
func installOps(b binder) {
	for i := range ops {
		o := &ops[i]
		if (i == 0 || o.on != ops[i-1].on) && o.on != onWindow {
			b.object(o.on, globalNames[o.on])
		}
		b.install(o)
	}
}

// runHandlers fires registered handlers (ready/load events, timers,
// element events) in registration order, including handlers registered
// while handling, up to limit invocations. It models ZombieJS driving the
// page after the main script.
func (s *state) runHandlers(b binder, limit int) (int, error) {
	fired := 0
	for i := 0; i < len(s.Doc.Handlers) && fired < limit; i++ {
		h := s.Doc.Handlers[i]
		if (h.Kind == "timeout" || h.Kind == "interval") && s.cancelled[h.TimerID] {
			continue
		}
		ran, err := b.fire(h)
		if ran {
			fired++
		}
		if err != nil {
			return fired, fmt.Errorf("dom: handler %d (%s %s): %w", i, h.Kind, h.Event, err)
		}
	}
	return fired, nil
}

func upper(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		out[i] = c
	}
	return string(out)
}
