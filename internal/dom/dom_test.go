package dom_test

import (
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

func TestDocumentModel(t *testing.T) {
	doc := dom.NewDocument(dom.Options{})
	if doc.ByID("main") == nil || doc.ByID("content") == nil {
		t.Fatal("default page missing identified containers")
	}
	if doc.ByID("nope") != nil {
		t.Error("unknown id must return nil")
	}
	lis := doc.ByTag("li")
	if len(lis) != 3 {
		t.Errorf("got %d li elements, want 3", len(lis))
	}
	all := doc.ByTag("*")
	if len(all) < 8 {
		t.Errorf("document suspiciously small: %d elements", len(all))
	}

	n := doc.NewNode("span", "probe")
	if doc.ByID("probe") != nil {
		t.Error("detached nodes must not be reachable by id")
	}
	doc.Append(doc.Body, n)
	if doc.ByID("probe") != n {
		t.Error("attached node must be reachable by id")
	}
	doc.Remove(doc.Body, n)
	if doc.ByID("probe") != nil {
		t.Error("removed node must not be reachable")
	}
}

func TestInnerHTMLParsing(t *testing.T) {
	doc := dom.NewDocument(dom.Options{})
	div := doc.NewNode("div", "")
	doc.SetInnerHTML(div, "<link/><table></table><a href='x'>text</a>")
	var tags []string
	for _, c := range div.Children {
		tags = append(tags, c.Tag)
	}
	if strings.Join(tags, ",") != "link,table,a" {
		t.Errorf("parsed tags %v", tags)
	}
	if !strings.Contains(div.InnerHTML(), "<link") {
		t.Errorf("render lost children: %s", div.InnerHTML())
	}
}

// runConcrete executes src with the concrete binding and returns output.
func runConcrete(t *testing.T, src string) string {
	t.Helper()
	mod, err := ir.Compile("t.js", src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	it := interp.New(mod, interp.Options{Out: &buf})
	b := dom.Install(it, dom.NewDocument(dom.Options{}))
	if _, err := it.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := b.RunHandlers(16); err != nil {
		t.Fatalf("handlers: %v", err)
	}
	return buf.String()
}

func TestConcreteBindingBasics(t *testing.T) {
	out := runConcrete(t, `
		var el = document.getElementById("main");
		console.log(el.tagName, el.id);
		var lis = document.getElementsByTagName("li");
		console.log(lis.length);
		var div = document.createElement("div");
		div.innerHTML = "<link/>";
		console.log(div.getElementsByTagName("link").length);
		div.setAttribute("data-x", "7");
		console.log(div.getAttribute("data-x"));
		console.log(navigator.userAgent.indexOf("Gecko") >= 0);
		console.log(window === globalThis);
	`)
	want := "DIV main\n3\n1\n7\ntrue\ntrue\n"
	if out != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestEventHandlersAndTimers(t *testing.T) {
	out := runConcrete(t, `
		document.addEventListener("DOMContentLoaded", function(ev) {
			console.log("ready", ev.type);
		});
		var id = setTimeout(function() { console.log("timer"); }, 10);
		setTimeout(function() { console.log("cancelled"); }, 10);
		clearTimeout(2);
		document.getElementById("main").addEventListener("click", function(ev) {
			console.log("clicked", ev.target.id);
		});
	`)
	want := "ready DOMContentLoaded\ntimer\nclicked main\n"
	if out != want {
		t.Errorf("got:\n%swant:\n%s", out, want)
	}
}

// analyzeDOM runs src under the instrumented interpreter with the core
// binding.
func analyzeDOM(t *testing.T, src string, det bool) (*facts.Store, *core.Analysis, *ir.Module) {
	t.Helper()
	mod, err := ir.Compile("t.js", src)
	if err != nil {
		t.Fatal(err)
	}
	store := facts.NewStore()
	a := core.New(mod, store, core.Options{})
	b := dom.InstallCore(a, dom.NewDocument(dom.Options{}), det)
	if _, err := a.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := b.RunHandlers(16); err != nil {
		t.Fatalf("handlers: %v", err)
	}
	return store, a, mod
}

// factDetAtLine finds the determinacy of the single register-defining fact
// matching pred on a line.
func factDetAtLine(t *testing.T, store *facts.Store, mod *ir.Module, line int, kind string) (bool, bool) {
	t.Helper()
	for _, f := range store.All() {
		in := mod.InstrAt(f.Instr)
		if in == nil || in.IPos().Line != line {
			continue
		}
		switch kind {
		case "getfield":
			if _, ok := in.(*ir.GetField); ok {
				return f.Det, true
			}
		case "call":
			if _, ok := in.(*ir.Call); ok {
				return f.Det, true
			}
		}
	}
	return false, false
}

func TestDOMDeterminacyPolicy(t *testing.T) {
	src := `
		var ua = navigator.userAgent;
		var el = document.getElementById("main");
		var local = {p: 1};
		var probe = local.p;
	`
	// Conservative DOM: reads indeterminate.
	store, _, mod := analyzeDOM(t, src, false)
	if det, ok := factDetAtLine(t, store, mod, 2, "getfield"); !ok || det {
		t.Errorf("userAgent should be indeterminate (ok=%v det=%v)", ok, det)
	}
	if det, ok := factDetAtLine(t, store, mod, 3, "call"); !ok || det {
		t.Errorf("getElementById result should be indeterminate (ok=%v det=%v)", ok, det)
	}
	// §4: DOM calls only modify DOM structures — no general heap flush, so
	// non-DOM heap state stays determinate.
	if det, ok := factDetAtLine(t, store, mod, 5, "getfield"); !ok || !det {
		t.Errorf("local heap read should stay determinate (ok=%v det=%v)", ok, det)
	}

	// DetDOM: everything determinate.
	dstore, _, dmod := analyzeDOM(t, src, true)
	if det, ok := factDetAtLine(t, dstore, dmod, 2, "getfield"); !ok || !det {
		t.Errorf("DetDOM userAgent should be determinate (ok=%v det=%v)", ok, det)
	}
	if det, ok := factDetAtLine(t, dstore, dmod, 3, "call"); !ok || !det {
		t.Errorf("DetDOM getElementById should be determinate (ok=%v det=%v)", ok, det)
	}
}

func TestHandlerEntryFlush(t *testing.T) {
	src := `
		var state = {x: 1};
		document.addEventListener("load", function() {
			var probe = state.x;
		});
	`
	_, a, _ := analyzeDOM(t, src, true)
	if a.Stats().FlushReasons["event-handler"] != 1 {
		t.Errorf("expected exactly one handler-entry flush, got %v", a.Stats().FlushReasons)
	}
}

func TestCounterfactualAbortsOnDOMMutation(t *testing.T) {
	src := `
		if (Math.random() > 2) {
			var d = document.createElement("div");
		}
	`
	_, a, _ := analyzeDOM(t, src, false)
	if a.Stats().CFAborts == 0 {
		t.Error("counterfactual execution should abort at the External createElement")
	}
	if a.Stats().FlushReasons["cf-abort"] == 0 {
		t.Errorf("abort should flush: %v", a.Stats().FlushReasons)
	}
}

// TestCounterfactualAbortsOnDOMSetter pins that a DOM accessor setter in
// a counterfactual branch aborts the counterfactual before the host DOM
// changes, under both DOM policies, so the Effect tag on setter rows is
// never needed.
func TestCounterfactualAbortsOnDOMSetter(t *testing.T) {
	src := `
		var el = document.getElementById("main");
		if (Math.random() > 2) { el.id = "changed"; el.innerHTML = "<p/>"; }
		console.log(el.id, document.getElementById("main") === el, el.getElementsByTagName("p").length);
	`
	const want = "main true 0\n"
	if got := runConcrete(t, src); got != want {
		t.Errorf("concrete binding: got %q, want %q", got, want)
	}
	for _, det := range []bool{false, true} {
		var buf strings.Builder
		a := core.New(ir.MustCompile("t.js", src), facts.NewStore(), core.Options{Out: &buf})
		dom.InstallCore(a, dom.NewDocument(dom.Options{}), det)
		if _, err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Errorf("detDOM=%v: instrumented binding printed %q, want %q", det, buf.String(), want)
		}
		if n := a.Stats().CFAborts; n != 1 {
			t.Errorf("detDOM=%v: %d counterfactual aborts, want 1", det, n)
		}
	}
}

// TestConcreteAndCoreBindingsAgree runs one script over most of the DOM
// under both bindings; both must print exactly the expected text. The
// bindings share one operation table, so the expected text, not their
// agreement, is what catches a bug in an operation.
func TestConcreteAndCoreBindingsAgree(t *testing.T) {
	src := `
		var items = document.getElementById("items");
		console.log(items.childNodes.length, document.getElementById("nope"));
		var el = document.getElementById("content");
		el.innerHTML = "<span></span>";
		console.log(el.firstChild.tagName, el.firstChild.parentNode === el, el.innerHTML);
		console.log(document.getElementById("items"), items.parentNode, document.getElementById("item0"));
		console.log(document.getElementsByTagName("span").length, document.getElementsByTagName("li").length);
		console.log(document.title, navigator.appName, location.protocol, document.readyState);
		var d = document.createElement("div");
		d.setAttribute("id", "fresh");
		d.setAttribute("data-x", "1");
		console.log(document.body.appendChild(d) === d, document.getElementById("fresh") === d);
		console.log(d.getAttribute("data-x"), d.getAttribute("missing"), d.id, d.nodeName, d.nodeType);
		d.id = "renamed";
		console.log(document.getElementById("renamed") === d, document.getElementById("fresh"));
		var q = document.getElementById("query");
		q.value = "v";
		console.log(q.value, q.getAttribute("type"), q.parentNode.tagName);
		document.body.removeChild(d);
		console.log(document.getElementById("renamed"), document.body.getElementsByTagName("*").length);
		var t = setTimeout(function() { console.log("cancelled"); }, 0);
		clearTimeout(t);
		setTimeout(function() { console.log("timer", t); }, 0);
		document.addEventListener("ready", function(e) { console.log("event", e.type); });
	`
	const want = "3 null\n" +
		"SPAN true <span></span>\n" +
		"null null null\n" +
		"1 0\n" +
		"determinacy test page Netscape http: loading\n" +
		"true true\n" +
		"1 null fresh DIV 1\n" +
		"true null\n" +
		"v text FORM\n" +
		"null 6\n" +
		"timer 1\n" +
		"event ready\n"
	if got := runConcrete(t, src); got != want {
		t.Errorf("concrete binding:\n%s\nwant:\n%s", got, want)
	}

	mod := ir.MustCompile("t.js", src)
	var buf strings.Builder
	a := core.New(mod, facts.NewStore(), core.Options{Out: &buf})
	b := dom.InstallCore(a, dom.NewDocument(dom.Options{}), false)
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunHandlers(16); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("instrumented binding:\n%s\nwant:\n%s", buf.String(), want)
	}
}
