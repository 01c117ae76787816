package progcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"determinacy/internal/obs"
)

const progA = `var x = 1 + 2; var y = x * 3;`
const progB = `function f(n) { return n + 1; } var r = f(41);`
const progC = `var s = "hello"; var t = s + " world";`

func TestCompileHitMiss(t *testing.T) {
	c := New(0)
	p1, m1, err := c.Compile("a.js", progA)
	if err != nil {
		t.Fatal(err)
	}
	p2, m2, err := c.Compile("a.js", progA)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cached AST should be the shared pointer on a hit")
	}
	if m1 != m2 {
		t.Fatal("cached module should be the shared pointer on a hit")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	// Same source under a different display name is a different key: the
	// name is embedded in diagnostics, so sharing across names would leak
	// the wrong file name into errors and fact rendering.
	if _, _, err := c.Compile("b.js", progA); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("distinct file name should miss; stats = %+v", s)
	}
}

func TestErrorsAreCached(t *testing.T) {
	c := New(0)
	_, _, err1 := c.Compile("bad.js", `var = = ;`)
	if err1 == nil {
		t.Fatal("expected a parse error")
	}
	_, _, err2 := c.Compile("bad.js", `var = = ;`)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error mismatch: %v vs %v", err1, err2)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("error entries should hit like any other; stats = %+v", s)
	}
	if !strings.Contains(err1.Error(), "expected") {
		t.Fatalf("unexpected diagnostic: %v", err1)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	mustCompile(t, c, "a.js", progA)
	mustCompile(t, c, "b.js", progB)
	mustCompile(t, c, "a.js", progA) // refresh a: b is now LRU
	mustCompile(t, c, "c.js", progC) // evicts b
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", s)
	}
	mustCompile(t, c, "a.js", progA) // still resident
	if s := c.Stats(); s.Hits != 2 {
		t.Fatalf("refreshed entry should survive; stats = %+v", s)
	}
	mustCompile(t, c, "b.js", progB) // evicted, so a miss again
	if s := c.Stats(); s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 4 misses / 2 evictions", s)
	}
}

// TestConcurrentSingleflight checks that racing misses on one key compile
// once and share the entry. Run under -race this also exercises the lock
// discipline around the LRU list.
func TestConcurrentSingleflight(t *testing.T) {
	c := New(0)
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, m, err := c.Compile("a.js", progA)
			if err != nil || p == nil || m == nil {
				t.Errorf("concurrent Compile failed: %v", err)
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss / 1 entry for %d racers", s, goroutines)
	}
	if s.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, goroutines-1)
	}
}

func TestMetricsMirror(t *testing.T) {
	m := obs.NewMetrics()
	c := New(0).WithMetrics(m)
	mustCompile(t, c, "a.js", progA)
	mustCompile(t, c, "a.js", progA)
	mustCompile(t, c, "b.js", progB)
	if got := m.Counter("progcache_hits_total").Value(); got != 1 {
		t.Fatalf("hits_total = %d, want 1", got)
	}
	if got := m.Counter("progcache_misses_total").Value(); got != 2 {
		t.Fatalf("misses_total = %d, want 2", got)
	}
	if got := m.Gauge("progcache_entries").Value(); got != 2 {
		t.Fatalf("entries gauge = %v, want 2", got)
	}
	want := Stats{Hits: 1, Misses: 2}.HitRate()
	if got := m.Gauge("progcache_hit_ratio").Value(); got != want {
		t.Fatalf("hit_ratio = %v, want %v", got, want)
	}
}

// TestMetricsMatchStatsUnderConcurrency pins that the published series
// are accounted in the same critical section as the cache state: after
// concurrent compiles of distinct and repeated sources (with evictions),
// every counter and gauge equals the final Stats snapshot. Run under
// -race.
func TestMetricsMatchStatsUnderConcurrency(t *testing.T) {
	m := obs.NewMetrics()
	c := New(16).WithMetrics(m)
	const goroutines, perG = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				file, src := "shared.js", fmt.Sprintf("var s = %d;", i%5)
				if i%2 == 1 {
					file, src = fmt.Sprintf("g%d.js", g), fmt.Sprintf("var d = %d;", i)
				}
				mustCompile(t, c, file, src)
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != goroutines*perG || s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("stats = %+v, want %d lookups with hits and evictions", s, goroutines*perG)
	}
	for name, want := range map[string]int64{
		"progcache_hits_total":      s.Hits,
		"progcache_misses_total":    s.Misses,
		"progcache_evictions_total": s.Evictions,
	} {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Gauge("progcache_entries").Value(); got != float64(s.Entries) {
		t.Errorf("progcache_entries = %v, want %d", got, s.Entries)
	}
	if got := m.Gauge("progcache_hit_ratio").Value(); got != s.HitRate() {
		t.Errorf("progcache_hit_ratio = %v, want %v", got, s.HitRate())
	}
}

func TestHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Fatalf("empty HitRate = %v, want 0", hr)
	}
	if hr := (Stats{Hits: 3, Misses: 1}).HitRate(); hr != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", hr)
	}
}

func mustCompile(t *testing.T, c *Cache, file, src string) {
	t.Helper()
	if _, _, err := c.Compile(file, src); err != nil {
		t.Fatalf("Compile(%s): %v", file, err)
	}
}

// TestErrorEntryCapAndMetrics pins the error-entry accounting: cached
// front-end errors are counted, capped well below the main capacity, and
// evicted oldest-first with their own eviction series — a stream of
// distinct bad sources must never displace compiled programs wholesale.
func TestErrorEntryCapAndMetrics(t *testing.T) {
	m := obs.NewMetrics()
	c := New(40).WithMetrics(m) // error cap = 40/4 = 10
	mustCompile(t, c, "good-a.js", progA)
	mustCompile(t, c, "good-b.js", progB)

	bad := func(i int) (string, string) {
		return fmt.Sprintf("bad-%d.js", i), fmt.Sprintf("var %d = = ;", i)
	}
	for i := 0; i < 25; i++ {
		file, src := bad(i)
		if _, _, err := c.Compile(file, src); err == nil {
			t.Fatalf("%s: expected a parse error", file)
		}
	}
	s := c.Stats()
	if s.ErrorEntries != 10 {
		t.Fatalf("error entries = %d, want the cap of 10 (stats %+v)", s.ErrorEntries, s)
	}
	if s.ErrorEvictions != 15 {
		t.Fatalf("error evictions = %d, want 15 (stats %+v)", s.ErrorEvictions, s)
	}
	if s.Evictions != 15 {
		t.Fatalf("evictions = %d, want error evictions included (stats %+v)", s.Evictions, s)
	}
	// The compiled programs survive untouched, far below the main cap.
	mustCompile(t, c, "good-a.js", progA)
	mustCompile(t, c, "good-b.js", progB)
	if got := c.Stats(); got.Hits != 2 {
		t.Fatalf("compiled entries were displaced by error entries: %+v", got)
	}

	// Oldest errors went first: the most recent ones still hit, the
	// earliest miss again.
	if file, src := bad(24); func() bool { _, _, err := c.Compile(file, src); return err != nil }() {
		if got := c.Stats(); got.Hits != 3 {
			t.Fatalf("recent error entry did not hit: %+v", got)
		}
	}
	if file, src := bad(0); func() bool { _, _, err := c.Compile(file, src); return err != nil }() {
		if got := c.Stats(); got.Misses != 28 {
			t.Fatalf("oldest error entry should have been evicted (misses %d, want 28): %+v", got.Misses, got)
		}
	}

	if got := m.Counter("progcache_error_evictions_total").Value(); got < 15 {
		t.Fatalf("error_evictions_total = %d, want >= 15", got)
	}
	if got := m.Gauge("progcache_error_entries").Value(); got != float64(c.Stats().ErrorEntries) {
		t.Fatalf("error_entries gauge = %v, want %d", got, c.Stats().ErrorEntries)
	}

	// Re-requesting a cached error must not inflate the count.
	for i := 20; i < 25; i++ {
		file, src := bad(i)
		c.Compile(file, src)
	}
	if got := c.Stats(); got.ErrorEntries > 10 {
		t.Fatalf("error entries exceeded the cap after repeat lookups: %+v", got)
	}
}

// TestErrorCapConcurrent hammers the error cap from many goroutines so
// -race proves the accounting's lock discipline.
func TestErrorCapConcurrent(t *testing.T) {
	c := New(16) // error cap = minErrorEntries = 4
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				file := fmt.Sprintf("bad-%d-%d.js", g, i%10)
				if _, _, err := c.Compile(file, `var = = ;`); err == nil {
					t.Errorf("%s: expected a parse error", file)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.ErrorEntries > 4 {
		t.Fatalf("error entries = %d, want <= cap 4 (stats %+v)", s.ErrorEntries, s)
	}
	if s.ErrorEntries < 0 {
		t.Fatalf("error accounting went negative: %+v", s)
	}
}
