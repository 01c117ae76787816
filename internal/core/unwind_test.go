package core

import (
	"testing"

	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// TestLoopUnwindPropertyFlags pins the existence state an indeterminate
// loop leaves on properties, which rendered facts cannot fully show. A
// property that determinately existed before the loop and is deleted in
// its last iteration, and one created and deleted in the same iteration,
// both end as phantoms: marking a phantom leaves it a phantom. A property
// rewritten in every iteration stays present with an indeterminate value.
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
		name string
		want presence
	}{
		{"a", phantom},
		{"b", present},
		{"x", phantom},
	} {
		p, ok := v.O.props[c.name]
		if !ok {
			t.Errorf("o.%s: no cell", c.name)
			continue
		}
		if p.presence != c.want || p.val.Det {
			t.Errorf("o.%s: presence=%d det=%v; want presence=%d det=false", c.name, p.presence, p.val.Det, c.want)
		}
	}
}
