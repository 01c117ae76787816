// Package dom is the ZombieJS substitute: a synthetic DOM emulation exposed
// to both the concrete interpreter (internal/interp) and the instrumented
// determinacy interpreter (internal/core).
//
// The determinacy policy follows §4 of the paper:
//
//   - DOM functions only modify DOM data structures, so calling them does
//     not flush the general heap;
//   - return values of DOM functions and reads from DOM data structures are
//     indeterminate;
//   - the heap is flushed on entry to every event handler, since events can
//     fire in any order;
//   - the Deterministic option implements the paper's Spec+DetDOM
//     configuration (§5.1): all DOM properties and operation results are
//     assumed determinate, effectively specializing the program to one
//     browser and one HTML document (unsound in general, used to bound the
//     benefit of a richer DOM model).
package dom

import (
	"fmt"
	"strings"
)

// Node is one element of the host-side document tree.
type Node struct {
	Tag      string
	ID       string
	Text     string
	Attrs    map[string]string
	Children []*Node
	Parent   *Node
	doc      *Document
	// Seq is a stable per-document node number.
	Seq int
}

// Document is the host-side DOM state shared by an emulated page.
type Document struct {
	Root  *Node // <html>
	Head  *Node
	Body  *Node
	Title string
	// UserAgent is reported by navigator.userAgent.
	UserAgent string
	// URL is reported by window.location.href.
	URL string

	byID  map[string]*Node
	nodes []*Node
	nseq  int

	// Handlers registered via addEventListener/setTimeout, in registration
	// order. The host drives them after the main script (RunHandlers in the
	// bindings).
	Handlers []Handler
}

// Handler is a registered event handler or timer callback. Fn is an opaque
// function value owned by the binding that registered it.
type Handler struct {
	Kind   string // "event", "timeout", "interval", "ready"
	Event  string
	Target *Node // nil for window/document-level handlers and timers
	Fn     any
	// TimerID is the setTimeout/setInterval handle used by clearTimeout.
	TimerID int
}

// Options configures a synthetic document.
type Options struct {
	UserAgent string
	URL       string
	Title     string
}

// NewDocument builds the default synthetic page: a small but realistic
// document with identified containers that the workloads select against.
func NewDocument(opts Options) *Document {
	if opts.UserAgent == "" {
		opts.UserAgent = "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 detjs/1.0"
	}
	if opts.URL == "" {
		opts.URL = "http://localhost/index.html"
	}
	if opts.Title == "" {
		opts.Title = "determinacy test page"
	}
	d := &Document{
		Title:     opts.Title,
		UserAgent: opts.UserAgent,
		URL:       opts.URL,
		byID:      make(map[string]*Node),
	}
	d.Root = d.NewNode("html", "")
	d.Head = d.NewNode("head", "")
	d.Body = d.NewNode("body", "")
	d.Append(d.Root, d.Head)
	d.Append(d.Root, d.Body)

	main := d.NewNode("div", "main")
	content := d.NewNode("div", "content")
	banner := d.NewNode("div", "banner")
	list := d.NewNode("ul", "items")
	d.Append(d.Body, main)
	d.Append(main, content)
	d.Append(main, banner)
	d.Append(content, list)
	for i := 0; i < 3; i++ {
		li := d.NewNode("li", fmt.Sprintf("item%d", i))
		li.Text = fmt.Sprintf("item %d", i)
		d.Append(list, li)
	}
	form := d.NewNode("form", "mainform")
	input := d.NewNode("input", "query")
	input.Attrs["type"] = "text"
	input.Attrs["value"] = ""
	d.Append(d.Body, form)
	d.Append(form, input)
	return d
}

// NewNode allocates a detached node.
func (d *Document) NewNode(tag, id string) *Node {
	d.nseq++
	n := &Node{Tag: strings.ToLower(tag), ID: id, Attrs: map[string]string{}, doc: d, Seq: d.nseq}
	d.nodes = append(d.nodes, n)
	if id != "" {
		d.byID[id] = n
	}
	return n
}

// Append attaches child to parent, detaching it from any previous parent.
func (d *Document) Append(parent, child *Node) {
	if child.Parent != nil {
		d.Remove(child.Parent, child)
	}
	child.Parent = parent
	parent.Children = append(parent.Children, child)
}

// Remove detaches child from parent; it reports whether it was present.
func (d *Document) Remove(parent, child *Node) bool {
	for i, c := range parent.Children {
		if c == child {
			parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
			child.Parent = nil
			return true
		}
	}
	return false
}

// ByID looks up an attached element by id.
func (d *Document) ByID(id string) *Node {
	n := d.byID[id]
	if n == nil || !d.attached(n) {
		return nil
	}
	return n
}

func (d *Document) attached(n *Node) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur == d.Root {
			return true
		}
	}
	return false
}

// ByTag collects attached elements with the given tag ("*" for all) in
// document order.
func (d *Document) ByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	if tag == "*" || d.Root.Tag == tag {
		out = append(out, d.Root)
	}
	return d.Root.descendants(tag, out)
}

// descendants appends n's descendants with the given tag ("*" for all) to
// out, in document order.
func (n *Node) descendants(tag string, out []*Node) []*Node {
	for _, c := range n.Children {
		if tag == "*" || c.Tag == tag {
			out = append(out, c)
		}
		out = c.descendants(tag, out)
	}
	return out
}

// SetID registers an id change.
func (d *Document) SetID(n *Node, id string) {
	if n.ID != "" {
		delete(d.byID, n.ID)
	}
	n.ID = id
	if id != "" {
		d.byID[id] = n
	}
}

// InnerHTML renders a node's children as simplified HTML.
func (n *Node) InnerHTML() string {
	var b strings.Builder
	for _, c := range n.Children {
		c.render(&b)
	}
	if len(n.Children) == 0 {
		b.WriteString(n.Text)
	}
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	fmt.Fprintf(b, "<%s", n.Tag)
	if n.ID != "" {
		fmt.Fprintf(b, " id=%q", n.ID)
	}
	for k, v := range n.Attrs {
		fmt.Fprintf(b, " %s=%q", k, v)
	}
	b.WriteString(">")
	if len(n.Children) == 0 {
		b.WriteString(n.Text)
	}
	for _, c := range n.Children {
		c.render(b)
	}
	fmt.Fprintf(b, "</%s>", n.Tag)
}

// SetInnerHTML replaces children with a crude parse of html: it recognizes
// the simple single-tag patterns browser feature detection uses (e.g.
// jQuery's "<link/>", "<table></table>"); anything else becomes text.
func (d *Document) SetInnerHTML(n *Node, html string) {
	for _, c := range n.Children {
		c.Parent = nil
	}
	n.Children = nil
	n.Text = ""
	s := strings.TrimSpace(html)
	for s != "" {
		if !strings.HasPrefix(s, "<") {
			n.Text = s
			return
		}
		end := strings.IndexByte(s, '>')
		if end < 0 {
			n.Text = s
			return
		}
		tag := strings.Trim(s[1:end], "/ ")
		if i := strings.IndexAny(tag, " \t"); i >= 0 {
			tag = tag[:i]
		}
		child := d.NewNode(tag, "")
		d.Append(n, child)
		s = s[end+1:]
		// Skip a matching close tag if present.
		close := "</" + child.Tag + ">"
		if i := strings.Index(s, close); i >= 0 {
			child.Text = s[:i]
			s = s[i+len(close):]
		}
		s = strings.TrimSpace(s)
	}
}
