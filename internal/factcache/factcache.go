// Package factcache memoizes determinacy analysis results in an on-disk
// fact database — the L2 layer under the front-end compile cache
// (internal/batch/progcache, L1).
//
// A completed run is stored as one file, runs/<key id>, named by a hash of
// the program's file name, its source hash and the canonical signature of
// every option that shapes facts. The record holds its own key id, the
// run's facts in recording order, the console output, the run statistics
// and the handler count; serving a warm hit replays the facts through
// Store.RecordWire and is therefore byte-identical to re-running the
// analysis — the property internal/diffcheck's memoization oracle checks.
// A record that fails its frame check, or whose key id differs from the
// name it was read under, is deleted and read as a miss; the next store
// of that key rewrites it.
//
// On a re-submission whose source changed, the full key misses but
// heads/<anchor id>, one per (program, options), still names the previous
// run; Diff compares per-function body hashes against it so the
// incremental cost is visible (factcache_fn_{unchanged,changed}_total).
//
// Eligibility is decided by callers (only they see partiality): partial,
// degraded, errored, or eval-containing runs must NEVER populate the
// cache — a cached entry asserts "this is exactly what a fresh run
// produces", which a truncated run cannot.
package factcache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
)

// DefaultMemEntries bounds the in-memory LRU of decoded records; disk
// entries are unbounded (one file per key).
const DefaultMemEntries = 64

// MaxOutputBytes caps the console output a cached run may carry; runs
// printing more are not cached (skip reason "output-cap").
const MaxOutputBytes = 1 << 20

// Sig is the canonical signature of every analysis option that shapes
// facts, statistics or output. Sinks (Out, Tracer) and scheduling
// (Workers, Deadline, Ctx) are deliberately absent.
type Sig struct {
	Seed                  uint64     `json:"seed"`
	NowBits               uint64     `json:"now"`
	Inputs                []InputSig `json:"inputs,omitempty"`
	WithDOM               bool       `json:"dom,omitempty"`
	DetDOM                bool       `json:"detdom,omitempty"`
	RunHandlers           int        `json:"handlers,omitempty"`
	MaxCFDepth            int        `json:"cfdepth,omitempty"`
	MaxFlushes            int        `json:"flushes,omitempty"`
	MaxSteps              int        `json:"steps,omitempty"`
	DisableCounterfactual bool       `json:"nocf,omitempty"`
	ImmediateTaint        bool       `json:"taint,omitempty"`
	MuJSLocals            bool       `json:"mujs,omitempty"`
}

// InputSig is one __input binding in canonical form.
type InputSig struct {
	Name    string `json:"name"`
	Kind    int    `json:"kind"`
	NumBits uint64 `json:"num,omitempty"`
	Str     string `json:"str,omitempty"`
	Bool    bool   `json:"bool,omitempty"`
}

// NumSigBits canonicalizes a float for signature purposes (NaN bit
// patterns collapse to one).
func NumSigBits(f float64) uint64 {
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// canon serializes the signature deterministically (inputs sorted by
// name).
func (s Sig) canon() []byte {
	sort.Slice(s.Inputs, func(i, j int) bool { return s.Inputs[i].Name < s.Inputs[j].Name })
	b, err := json.Marshal(s)
	if err != nil {
		// Sig is a closed struct of scalars; Marshal cannot fail.
		panic(err)
	}
	return b
}

// Key addresses one (program, options) pair in the cache.
type Key struct {
	id   string // full address: schema + file + source hash + options
	head string // diff anchor: same minus the source hash
}

// KeyFor derives the cache key for a program and its options signature.
func KeyFor(file, source string, sig Sig) Key {
	sb := string(sig.canon())
	return Key{
		id:   hashString(fmt.Sprintf("key\x00%d\x00%s\x00%s\x00%s", Schema, file, hashString(source), sb)),
		head: hashString(fmt.Sprintf("head\x00%d\x00%s\x00%s", Schema, file, sb)),
	}
}

// ID reports the full cache address (diagnostics, tests).
func (k Key) ID() string { return k.id }

// Hit is a warm result: everything a cold run would have produced.
type Hit struct {
	// Store is a freshly rebuilt fact store; the caller owns it.
	Store *facts.Store
	// Output is the run's console bytes.
	Output []byte
	// Stats are the cold run's statistics.
	Stats core.Stats
	// HandlersRan counts the DOM handlers the cold run drove.
	HandlersRan int
}

// DiffReport summarizes a per-function IR diff against the previous cached
// record for the same (program, options) anchor.
type DiffReport struct {
	Total     int // functions in the current lowering
	Unchanged int // body hash present in the previous record
	Changed   int // new or modified bodies, or bodies that recorded no fact
}

// CacheStats is a point-in-time snapshot of cache activity, for tests and
// diagnostics; the live series go to the attached metrics registry.
type CacheStats struct {
	Hits, Misses, Stores, Joins int64
	Invalidations, Skips        int64
	FnUnchanged, FnChanged      int64
}

// Cache is the fact cache: an on-disk DB plus a small in-memory LRU of
// decoded records. Safe for concurrent use.
type Cache struct {
	dir string

	mu     sync.Mutex
	mem    map[string]*memEntry
	lru    *list.List // front = most recently used; values are *memEntry
	maxMem int

	metrics *obs.Metrics
	stats   CacheStats
}

type memEntry struct {
	key  string
	elem *list.Element
	rec  *record
}

// Open creates or opens a fact cache rooted at dir.
func Open(dir string) (*Cache, error) {
	for _, sub := range []string{"runs", "heads"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("factcache: open: %w", err)
		}
	}
	return &Cache{
		dir:    dir,
		mem:    map[string]*memEntry{},
		lru:    list.New(),
		maxMem: DefaultMemEntries,
	}, nil
}

// WithMetrics attaches a metrics registry; the cache then maintains
// factcache_* series live. Returns the cache for chaining.
func (c *Cache) WithMetrics(m *obs.Metrics) *Cache {
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
	return c
}

func (c *Cache) runPath(id string) string  { return filepath.Join(c.dir, "runs", id) }
func (c *Cache) headPath(id string) string { return filepath.Join(c.dir, "heads", id) }

// Stats snapshots cumulative cache activity.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// count bumps a local stat and the matching metrics series under c.mu.
func (c *Cache) countLocked(stat *int64, name string) {
	*stat++
	if c.metrics != nil {
		c.metrics.Counter(name).Inc()
	}
}

// Skip records that a run was deliberately not cached and why ("partial",
// "error", "eval", "output-cap"). The eligibility decision lives with
// callers; the taxonomy lives here so every layer shares one series.
func (c *Cache) Skip(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countLocked(&c.stats.Skips, fmt.Sprintf("factcache_skips_total{reason=%q}", reason))
}

// invalidate drops a broken run record so the next lookup is a clean
// miss, and publishes the reason.
func (c *Cache) invalidate(key Key, reason string) {
	os.Remove(c.runPath(key.id))
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.mem, key.id)
	c.countLocked(&c.stats.Invalidations, fmt.Sprintf("factcache_invalidations_total{reason=%q}", reason))
}

// reasonFor classifies a read error for the invalidation series.
func reasonFor(err error) string {
	if errors.Is(err, ErrVersion) {
		return "version"
	}
	return "corrupt"
}

// Lookup serves a warm result for key, rebuilding a fresh fact store from
// the cached run record. ok is false on a miss; any invalid on-disk state
// (truncation, bit flips, version skew, an undecodable or misnamed record)
// is invalidated and reported as a miss — never an error, never a wrong
// result.
func (c *Cache) Lookup(key Key) (*Hit, bool) {
	rec, ok := c.load(key)
	c.mu.Lock()
	if !ok {
		c.countLocked(&c.stats.Misses, "factcache_misses_total")
		c.mu.Unlock()
		return nil, false
	}
	c.countLocked(&c.stats.Hits, "factcache_hits_total")
	c.stats.Joins += int64(len(rec.Bodies))
	if c.metrics != nil {
		c.metrics.Counter("factcache_joins_total").Add(int64(len(rec.Bodies)))
	}
	c.mu.Unlock()
	return &Hit{
		Store:       rec.replay(),
		Output:      append([]byte(nil), rec.Output...),
		Stats:       rec.Stats,
		HandlersRan: rec.HandlersRan,
	}, true
}

// load fetches the decoded run record for key, from the memory LRU or
// disk. Absence is a quiet miss; invalid state invalidates first.
func (c *Cache) load(key Key) (*record, bool) {
	c.mu.Lock()
	if e, ok := c.mem[key.id]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.rec, true
	}
	c.mu.Unlock()

	b, err := readRecord(c.runPath(key.id), KindRun)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.invalidate(key, reasonFor(err))
		}
		return nil, false
	}
	rec := &record{}
	if err := json.Unmarshal(b, rec); err != nil || rec.Schema != Schema {
		c.invalidate(key, "schema")
		return nil, false
	}
	// The CRC vouches for the bytes, not for the name: a valid record
	// copied under another key's name must not serve.
	if rec.Key != key.id {
		c.invalidate(key, "corrupt")
		return nil, false
	}
	c.remember(key, rec)
	return rec, true
}

// remember inserts a decoded record into the memory LRU.
func (c *Cache) remember(key Key, rec *record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[key.id]; ok {
		e.rec = rec
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &memEntry{key: key.id, rec: rec}
	e.elem = c.lru.PushFront(e)
	c.mem[key.id] = e
	for len(c.mem) > c.maxMem {
		back := c.lru.Back()
		be := back.Value.(*memEntry)
		c.lru.Remove(back)
		delete(c.mem, be.key)
	}
	if c.metrics != nil {
		c.metrics.Gauge("factcache_mem_entries").Set(float64(len(c.mem)))
	}
}

// Store persists a COMPLETED run as one record — the caller vouches that
// it ran to the end (not partial, not degraded, no runtime eval) and that
// store/output/stats are exactly what any fresh run with the same key
// produces. It rewrites the run record and its diff anchor whatever is on
// disk, so a store also repairs any damage a read has detected.
func (c *Cache) Store(key Key, mod *ir.Module, store *facts.Store, output []byte, stats core.Stats, handlersRan int) error {
	if len(output) > MaxOutputBytes {
		c.Skip("output-cap")
		return nil
	}
	rec := newRecord(key, mod, store, output, stats, handlersRan)
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("factcache: encode record: %w", err)
	}
	if err := writeRecord(c.runPath(key.id), KindRun, b); err != nil {
		return err
	}
	if err := writeRecord(c.headPath(key.head), KindHead, []byte(key.id)); err != nil {
		return err
	}
	c.remember(key, rec)
	c.mu.Lock()
	c.countLocked(&c.stats.Stores, "factcache_stores_total")
	c.mu.Unlock()
	return nil
}

// Diff compares the current lowering's per-function body hashes against
// the most recent cached record for the same (program, options) anchor —
// the incremental-resubmission report: after an edit the full key misses,
// but the anchor still says which functions changed. A function that
// recorded no fact in the previous run has no body there and counts as
// changed. ok is false when no previous record exists (first sight of
// this program).
func (c *Cache) Diff(key Key, mod *ir.Module) (DiffReport, bool) {
	head := c.headPath(key.head)
	id, err := readRecord(head, KindHead)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			os.Remove(head)
		}
		return DiffReport{}, false
	}
	b, err := readRecord(c.runPath(string(id)), KindRun)
	// Decode the key and body list alone: a miss need not allocate the
	// previous run's facts.
	var prev struct {
		Key    string   `json:"key"`
		Bodies []string `json:"bodies"`
	}
	if err == nil {
		err = json.Unmarshal(b, &prev)
	}
	if err != nil || prev.Key != string(id) {
		os.Remove(head)
		return DiffReport{}, false
	}
	seen := make(map[string]bool, len(prev.Bodies))
	for _, h := range prev.Bodies {
		seen[h] = true
	}
	var rep DiffReport
	for _, fn := range mod.Funcs() {
		rep.Total++
		if seen[BodyHash(mod, fn)] {
			rep.Unchanged++
		} else {
			rep.Changed++
		}
	}
	c.mu.Lock()
	c.stats.FnUnchanged += int64(rep.Unchanged)
	c.stats.FnChanged += int64(rep.Changed)
	if c.metrics != nil {
		c.metrics.Counter("factcache_fn_unchanged_total").Add(int64(rep.Unchanged))
		c.metrics.Counter("factcache_fn_changed_total").Add(int64(rep.Changed))
	}
	c.mu.Unlock()
	return rep, true
}
