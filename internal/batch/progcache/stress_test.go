package progcache

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentStressSmallLRU hammers a 4-entry cache from many
// goroutines over 16 overlapping sources, forcing constant eviction and
// re-admission races. Run under -race in CI. Invariants: every Compile
// returns a working module for its own source (never another entry's),
// the bookkeeping balances (hits+misses == lookups), and the entry count
// respects the cap.
func TestConcurrentStressSmallLRU(t *testing.T) {
	const (
		workers  = 16
		rounds   = 50
		programs = 16
		cap      = 4
	)
	c := New(cap)

	srcs := make([]string, programs)
	for i := range srcs {
		// Distinct constants make each program's lowering distinguishable.
		srcs[i] = fmt.Sprintf("var a = %d; var b = a + %d; console.log(b);", i, i*i)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*rounds + r*7) % programs
				file := fmt.Sprintf("p%d.js", i)
				prog, mod, err := c.Compile(file, srcs[i])
				if err != nil {
					t.Errorf("worker %d round %d: Compile(%s): %v", w, r, file, err)
					return
				}
				if prog == nil || mod == nil {
					t.Errorf("worker %d round %d: nil program/module", w, r)
					return
				}
				if mod.File != file || mod.Source != srcs[i] {
					t.Errorf("worker %d round %d: cache returned %q's entry for %q", w, r, mod.File, file)
					return
				}
				if len(mod.Funcs()) == 0 || mod.NumInstrs == 0 {
					t.Errorf("worker %d round %d: empty module for %s", w, r, file)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	lookups := int64(workers * rounds)
	if s.Hits+s.Misses != lookups {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, lookups)
	}
	if s.Entries > cap {
		t.Errorf("entries %d exceed cap %d", s.Entries, cap)
	}
	if s.Misses < programs {
		t.Errorf("misses %d < %d distinct programs", s.Misses, programs)
	}
	if s.Evictions < s.Misses-int64(cap) {
		t.Errorf("evictions %d cannot hold %d misses in %d slots", s.Evictions, s.Misses, cap)
	}
}

// TestConcurrentStressCachedErrors checks that broken sources race-safely
// cache their compile error: every caller gets the same failure, and
// error entries occupy LRU slots without corrupting good ones.
func TestConcurrentStressCachedErrors(t *testing.T) {
	c := New(2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				if (w+r)%2 == 0 {
					_, _, err := c.Compile("bad.js", `var = broken`)
					if err == nil {
						t.Error("broken source compiled")
						return
					}
				} else {
					_, mod, err := c.Compile("good.js", `var x = 1;`)
					if err != nil || mod == nil {
						t.Errorf("good source failed: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
