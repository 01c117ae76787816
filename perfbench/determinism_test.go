package main

import (
	"os"
	"testing"
)

// TestCountsRepeatAtSeed runs every workload's count pass twice at one
// seed, each on freshly set-up state, and requires every count metric to
// repeat exactly and every output check to pass. A change that moves a
// count moves it here first.
//
// Run from perfbench/: go test -run TestCountsRepeatAtSeed .
func TestCountsRepeatAtSeed(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // golden paths are relative to the repository root
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	golden = g
	for _, name := range []string{"paper", "serve", "resubmit"} {
		t.Run(name, func(t *testing.T) {
			var first map[string]float64
			for i := 0; i < 2; i++ {
				wl, err := newWorkload(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := wl.setup(7); err != nil {
					wl.close()
					t.Fatal(err)
				}
				m, _, _, err := wl.countPass()
				wl.close()
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = m
					continue
				}
				for _, k := range countNames {
					if m[k] != first[k] {
						t.Errorf("%s: %v, then %v", k, first[k], m[k])
					}
				}
			}
			if first["facts.rendered"]+first["pointsto.propagations"] == 0 || first["core.steps"] == 0 {
				t.Errorf("count pass did no work: %v", first)
			}
		})
	}
}
