package core

import (
	"testing"

	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// TestLoopUnwindPropertyFlags pins the existence flags the loop unwind
// leaves on properties, which rendered facts cannot show: a phantom reads
// as concretely absent whatever its maybeAbsent flag says. Popping each
// continuation frame through markIndeterminate, the next outer frame
// re-marks the first record of every location it merged from below, so a
// property created and deleted in the same indeterminate iteration ends as
// a phantom whose existence is also marked uncertain, while a property
// that determinately existed before the loop and is deleted in its last
// iteration ends as a plain phantom. The unwind must leave the same flags.
func TestLoopUnwindPropertyFlags(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var o = {a: 1, b: 2};
		var i = 0;
		while (i < 3 && Math.random() < 2) {
			i = i + 1;
			o.b = i;
			if (i == 2) { o.x = 1; delete o.x; }
			if (i == 3) { delete o.a; }
		}
	`)
	a := New(mod, facts.NewStore(), Options{})
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := a.LookupGlobal("o")
	if !ok || v.O == nil {
		t.Fatal("global o missing")
	}
	for _, c := range []struct {
		name                 string
		phantom, maybeAbsent bool
	}{
		{"a", true, false},
		{"b", false, false},
		{"x", true, true},
	} {
		p, ok := v.O.props[c.name]
		if !ok {
			t.Errorf("o.%s: no cell", c.name)
			continue
		}
		if p.phantom != c.phantom || p.maybeAbsent != c.maybeAbsent || p.val.Det {
			t.Errorf("o.%s: phantom=%v maybeAbsent=%v det=%v; want phantom=%v maybeAbsent=%v det=false",
				c.name, p.phantom, p.maybeAbsent, p.val.Det, c.phantom, c.maybeAbsent)
		}
	}
}
