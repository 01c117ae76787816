package pointsto

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"determinacy/internal/dom"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

// TestGlobalsGolden pins the abstract global environment: every object
// reachable from the global object by field, prototype or wildcard edges,
// with its kind and name, and every such edge. Objects are named by their
// first path in a breadth-first walk over sorted edge labels, so the golden
// does not depend on the order in which objects are created, only on which
// objects and links exist (both move the Table 1 cells).
//
// The golden changes only with an intended change of the static model. To
// re-record it, delete it and run this test: it writes the missing file and
// fails, so a re-recording never passes silently.
func TestGlobalsGolden(t *testing.T) {
	a := emptyAnalysis(t)
	var b strings.Builder
	walkGlobals(a, func(path string, o ObjID, edges []edge, paths map[ObjID]string) {
		fmt.Fprintf(&b, "%s %s %s\n", path, kindNames[a.objs[o].Kind], a.objs[o].Name)
		for _, e := range edges {
			fmt.Fprintf(&b, "  %s -> %s\n", e.label, paths[e.to])
		}
	})
	checkGolden(t, "globals.golden", []byte(b.String()))
}

// TestModelCoversBuiltins checks the static model against the runtime's
// two tables in both directions. Every native in interp.Builtins and every
// method in the DOM op table has exactly one abstract native at its path;
// every abstract native reachable from the global object is one of those,
// or the declared static-only unshift.
func TestModelCoversBuiltins(t *testing.T) {
	a := emptyAnalysis(t)
	lookup := func(o ObjID, path string) []ObjID {
		objs := []ObjID{o}
		for _, f := range strings.Split(path, ".") {
			var next []ObjID
			for _, x := range objs {
				for _, y := range a.fieldObjects(x, f) {
					next = append(next, y.ID)
				}
			}
			objs = next
		}
		return objs
	}
	declared := map[ObjID]bool{}
	expect := func(what string, objs []ObjID) {
		if len(objs) != 1 || a.objs[objs[0]].Kind != KNative {
			t.Errorf("%s: abstract objects %v, want one native", what, objs)
			return
		}
		declared[objs[0]] = true
	}
	natives := 0
	for i := range interp.Builtins {
		if b := &interp.Builtins[i]; b.Fn != nil {
			natives++
			expect("builtin "+b.Path(), lookup(a.globalObj, b.Path()))
		}
	}
	dom.StaticOps(func(global, name string, method bool, _ interp.Summary) {
		if !method {
			return
		}
		natives++
		owner := a.domElement
		if global != "" {
			owners := lookup(a.globalObj, global)
			if len(owners) != 1 {
				t.Errorf("DOM object %s: abstract objects %v, want one", global, owners)
				return
			}
			owner = owners[0]
		}
		expect("DOM op "+global+"."+name, lookup(owner, name))
	})
	if natives == 0 {
		t.Fatal("the runtime tables have no native functions")
	}
	expect("static-only Array.prototype."+unshift, lookup(a.globalObj, "Array.prototype."+unshift))

	abstract := 0
	walkGlobals(a, func(path string, o ObjID, _ []edge, _ map[ObjID]string) {
		if a.objs[o].Kind != KNative {
			return
		}
		abstract++
		if !declared[o] {
			t.Errorf("abstract native %s is no runtime entry", path)
		}
	})
	if abstract != len(declared) {
		t.Errorf("%d abstract natives reachable, %d declared", abstract, len(declared))
	}
}

func emptyAnalysis(t *testing.T) *analysis {
	t.Helper()
	mod, err := ir.Compile("t.js", "")
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(mod, Options{}).an
}

var kindNames = [...]string{KAlloc: "alloc", KFunc: "func", KProto: "proto", KNative: "native", KSpecial: "special"}

type edge struct {
	label string
	to    ObjID
}

// walkGlobals visits the objects reachable from the global object
// breadth-first, each once, with its first path and its outgoing edges
// sorted by label. paths holds the first path of every object seen so far,
// including each edge's target.
func walkGlobals(a *analysis, visit func(path string, o ObjID, edges []edge, paths map[ObjID]string)) {
	names := fieldNames(a)
	edgesOf := func(o ObjID) []edge {
		var out []edge
		add := func(label string, n int, ok bool) {
			if !ok {
				return
			}
			var tos []ObjID
			a.nodes[n].pts.forEach(func(to ObjID) { tos = append(tos, to) })
			sort.Slice(tos, func(i, j int) bool { return a.objs[tos[i]].String() < a.objs[tos[j]].String() })
			for _, to := range tos {
				out = append(out, edge{label, to})
			}
		}
		for _, f := range a.objNodes[o].fields {
			add("."+names[f.name], int(f.node), true)
		}
		on := a.objNodes[o]
		add(".<proto>", int(on.proto), on.proto >= 0)
		add("[*]", int(on.wild), on.wild >= 0)
		sort.SliceStable(out, func(i, j int) bool { return out[i].label < out[j].label })
		return out
	}

	paths := map[ObjID]string{a.globalObj: "Global"}
	queue := []ObjID{a.globalObj}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		edges := edgesOf(o)
		for _, e := range edges {
			if _, seen := paths[e.to]; !seen {
				paths[e.to] = paths[o] + e.label
				queue = append(queue, e.to)
			}
		}
		visit(paths[o], o, edges, paths)
	}
}

// fieldNames lists the interned property names by ID.
func fieldNames(a *analysis) []string {
	names := make([]string, len(a.baseFieldIDs)+len(a.fieldIDs))
	for _, layer := range []map[string]int{a.baseFieldIDs, a.fieldIDs} {
		for name, id := range layer {
			names[id] = name
		}
	}
	return names
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded missing golden %s; check it in and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs: got %d lines, want %d", path, len(gl), len(wl))
}
