// Package progcache is a content-addressed compilation cache for the
// determinacy pipeline's front end. Lex→parse→lower results are keyed by a
// hash of the display name and source text, bounded by an LRU policy, and
// shared read-only across concurrent workers: the baseline/specialized
// cells of one Table 1 row and the N seeds of a seed-sweep analysis all
// compile the same source exactly once.
//
// Cached ASTs and modules are handed out by pointer. Every downstream
// consumer (lowering, the specializer, fact rendering) treats the AST as
// read-only, and a lowered module is frozen: each run lowers its eval code
// into a private layer over it (see ir.Module.Layer), so any number of
// runs can share one cached module at the same time.
package progcache

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"determinacy/internal/ast"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
	"determinacy/internal/parser"
)

// DefaultMaxEntries bounds the cache when New is given a non-positive
// capacity. The experiment harness holds at most a few dozen distinct
// sources (4 jQuery versions × a handful of specialized variants plus the
// 28-program corpus), so this keeps every workload resident.
const DefaultMaxEntries = 128

// minErrorEntries floors the error-entry cap so tiny caches still retain
// a few cached diagnostics.
const minErrorEntries = 4

// Cache is a bounded, content-addressed compile cache. It is safe for
// concurrent use; concurrent misses on the same key compile once and share
// the result (the losers block until the winner finishes).
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*entry
	lru     *list.List // front = most recently used; values are *entry

	// Error entries (cached front-end failures) are capped separately at
	// errMax: a diagnostic costs microseconds to recreate, so a stream of
	// distinct bad sources must never be able to evict expensively
	// compiled programs wholesale. errCount tracks live error entries
	// under mu.
	errMax   int
	errCount int

	// Effectiveness counters, under mu with the entries they describe, so
	// the gauges published in the same critical section always equal a
	// Stats snapshot.
	hits, misses, evictions, errEvictions int64

	// metrics is the attached registry; m holds its per-compile series,
	// resolved once by WithMetrics. The eviction and error-entry series
	// are looked up on their rare paths, so a registry gains them only
	// once an eviction happens.
	metrics *obs.Metrics
	m       struct {
		hits, misses      *obs.Counter
		entries, hitRatio *obs.Gauge
	}
}

// cacheKey is the content address: a hash of display name and source text.
// The name participates so diagnostics (which embed it) stay byte-identical
// to an uncached compile.
type cacheKey [sha256.Size]byte

type entry struct {
	key  cacheKey
	elem *list.Element

	// once guards the single compilation of this entry; concurrent misses
	// on the same key wait on it rather than compiling redundantly.
	once sync.Once
	prog *ast.Program
	mod  *ir.Module
	err  error

	// isErr and counted implement error-entry accounting, both under
	// Cache.mu: counted flips when the finished compilation's outcome has
	// been folded into errCount, isErr marks the entry as a cached error
	// so eviction paths can maintain the count.
	isErr   bool
	counted bool
}

// New creates a cache bounded to max entries (DefaultMaxEntries when
// max <= 0).
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	errMax := max / 4
	if errMax < minErrorEntries {
		errMax = minErrorEntries
	}
	return &Cache{max: max, errMax: errMax, entries: make(map[cacheKey]*entry), lru: list.New()}
}

// WithMetrics attaches a metrics registry; the cache then maintains
// progcache_{hits,misses,evictions}_total counters and the
// progcache_entries and progcache_hit_ratio gauges live. Returns the cache
// for chaining. A nil registry publishes nothing.
func (c *Cache) WithMetrics(m *obs.Metrics) *Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = m
	if m == nil {
		return c
	}
	c.m.hits = m.Counter("progcache_hits_total")
	c.m.misses = m.Counter("progcache_misses_total")
	c.m.entries = m.Gauge("progcache_entries")
	c.m.hitRatio = m.Gauge("progcache_hit_ratio")
	return c
}

func keyOf(file, src string) cacheKey {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(src))
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// Compile parses and lowers source, serving repeated requests for the same
// (file, src) from the cache. The returned program and module are the
// shared cached ones: the AST is read-only by convention and the module is
// frozen. Front-end errors are cached too — they are deterministic per
// source text.
func (c *Cache) Compile(file, src string) (*ast.Program, *ir.Module, error) {
	prog, mod, _, err := c.CompileHit(file, src)
	return prog, mod, err
}

// CompileHit is Compile plus a hit report: hit is true when the front-end
// work was served from the cache (including cached front-end errors).
func (c *Cache) CompileHit(file, src string) (prog *ast.Program, mod *ir.Module, hit bool, err error) {
	k := keyOf(file, src)

	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
	} else {
		e = &entry{key: k}
		e.elem = c.lru.PushFront(e)
		c.entries[k] = e
		c.misses++
		for len(c.entries) > c.max {
			back := c.lru.Back()
			be := back.Value.(*entry)
			c.lru.Remove(back)
			delete(c.entries, be.key)
			if be.isErr {
				c.errCount--
			}
			c.evictions++
			if c.metrics != nil {
				c.metrics.Counter("progcache_evictions_total").Inc()
			}
		}
	}
	if c.metrics != nil {
		if ok {
			c.m.hits.Inc()
		} else {
			c.m.misses.Inc()
		}
		c.m.entries.Set(float64(len(c.entries)))
		c.m.hitRatio.Set(c.statsLocked().HitRate())
	}
	c.mu.Unlock()

	e.once.Do(func() {
		prog, err := parser.Parse(file, src)
		if err != nil {
			e.err = err
			return
		}
		mod, err := ir.Lower(prog)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.mod = prog, mod
	})
	if e.err != nil {
		c.noteError(e)
		return nil, nil, ok, e.err
	}
	return e.prog, e.mod, ok, nil
}

// noteError folds a finished compilation's error outcome into the
// error-entry accounting, exactly once per entry, and enforces the error
// cap by evicting the least-recently-used cached errors beyond it.
// Cached diagnostics cost microseconds to recreate, so shedding them
// protects the expensive compiled programs sharing the LRU.
func (c *Cache) noteError(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.counted {
		return
	}
	e.counted = true
	// The entry may have been evicted by the capacity sweep while its
	// compilation was still in flight; it then holds no cache slot.
	if c.entries[e.key] != e {
		return
	}
	e.isErr = true
	c.errCount++
	for elem := c.lru.Back(); elem != nil && c.errCount > c.errMax; {
		prev := elem.Prev()
		be := elem.Value.(*entry)
		if be.isErr {
			c.lru.Remove(elem)
			delete(c.entries, be.key)
			c.errCount--
			c.evictions++
			c.errEvictions++
			if c.metrics != nil {
				c.metrics.Counter("progcache_evictions_total").Inc()
				c.metrics.Counter("progcache_error_evictions_total").Inc()
			}
		}
		elem = prev
	}
	if c.metrics != nil {
		c.m.entries.Set(float64(len(c.entries)))
		c.metrics.Gauge("progcache_error_entries").Set(float64(c.errCount))
	}
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits, Misses, Evictions int64
	// ErrorEvictions counts evictions forced by the error-entry cap (also
	// included in Evictions).
	ErrorEvictions int64
	Entries        int
	// ErrorEntries counts live entries caching a front-end error; they
	// are capped separately from Entries (see New).
	ErrorEntries int
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats reports cumulative hit/miss/eviction counts and the live entry
// count.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

// statsLocked is Stats for callers holding c.mu.
func (c *Cache) statsLocked() Stats {
	return Stats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		ErrorEvictions: c.errEvictions,
		Entries:        len(c.entries),
		ErrorEntries:   c.errCount,
	}
}
