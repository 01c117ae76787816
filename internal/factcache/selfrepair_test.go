package factcache

import (
	"os"
	"sync"
	"testing"
)

// TestConcurrentSelfRepair pins the repair contract under contention: two
// goroutines hit the same bit-flipped run record at once, both degrade to
// a clean miss, both re-store the run concurrently and both stores
// succeed, after which both observers and a fresh handle read warm results
// byte-identical to the cold run. Run under -race, this also pins the
// Cache locking.
func TestConcurrentSelfRepair(t *testing.T) {
	dir := t.TempDir()
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	storeRun(t, mustOpen(t, dir), key, cold)
	wantRender := renderStore(cold.store)

	// Flip one payload bit in the run record on disk (the frame kind byte
	// tells it from the head).
	var records int
	for _, path := range dbFiles(t, dir) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) <= headerSize || b[6] != KindRun {
			continue
		}
		if records == 0 {
			bad := append([]byte(nil), b...)
			bad[headerSize] ^= 0x01
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		records++
	}
	if records != 1 {
		t.Fatalf("found %d run records on disk, want 1", records)
	}

	// One shared fresh handle: the empty memory LRU forces both goroutines
	// through the disk path where the damage lives.
	c := mustOpen(t, dir)

	// Phase 1: both goroutines look up concurrently. Each must see a
	// clean miss — one invalidates the damaged record, the other races it
	// into either a second invalidation or a missing-record miss.
	var phase sync.WaitGroup
	gate := make(chan struct{})
	var hits [2]bool
	for g := 0; g < 2; g++ {
		phase.Add(1)
		go func(g int) {
			defer phase.Done()
			<-gate
			_, hits[g] = c.Lookup(key)
		}(g)
	}
	close(gate)
	phase.Wait()
	if hits[0] || hits[1] {
		t.Fatalf("lookup hit on a corrupted record (hits=%v)", hits)
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v: no invalidation recorded for the damaged record", st)
	}

	// Phase 2: both re-analyze (precomputed — the runs are deterministic)
	// and store concurrently, as two request handlers would after the
	// shared miss.
	reruns := [2]*coldRun{runCold(t, testSrc, 7), runCold(t, testSrc, 7)}
	gate = make(chan struct{})
	for g := 0; g < 2; g++ {
		phase.Add(1)
		go func(g int) {
			defer phase.Done()
			<-gate
			r := reruns[g]
			if err := c.Store(key, r.mod, r.store, r.output, r.stats, 0); err != nil {
				t.Errorf("goroutine %d: store: %v", g, err)
			}
		}(g)
	}
	close(gate)
	phase.Wait()
	// Both stores replace the record atomically, so whichever rename lands
	// last leaves one whole record.
	if got := c.Stats().Stores; got != 2 {
		t.Fatalf("stores = %d, want 2", got)
	}

	// Phase 3: both observers (and a fresh process) read warm results
	// byte-identical to the cold run.
	renders := [2]string{}
	gate = make(chan struct{})
	for g := 0; g < 2; g++ {
		phase.Add(1)
		go func(g int) {
			defer phase.Done()
			<-gate
			hit, ok := c.Lookup(key)
			if !ok {
				t.Errorf("goroutine %d: lookup missed after repair", g)
				return
			}
			renders[g] = renderStore(hit.Store)
		}(g)
	}
	close(gate)
	phase.Wait()
	for g, got := range renders {
		if got != wantRender {
			t.Errorf("goroutine %d: warm render differs from cold run", g)
		}
	}
	if hit, ok := mustOpen(t, dir).Lookup(key); !ok {
		t.Fatal("fresh-process lookup missed after repair")
	} else if renderStore(hit.Store) != wantRender {
		t.Fatal("fresh-process warm render differs from cold run")
	}
}
