// Package facts stores determinacy facts: statements of the form
//
//	⟦e⟧ c = v   or   ⟦e⟧ c = ?
//
// meaning the expression at a given program point has value v (or is
// indeterminate) whenever execution reaches that point under calling
// context c. Program points are IR instruction IDs; contexts are stacks of
// call-site instruction IDs, each qualified with an occurrence sequence
// number so that distinct dynamic executions of the same call site (e.g.
// successive loop iterations, the paper's 24₀ vs 24₁) yield distinct facts.
package facts

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"determinacy/internal/ir"
)

// ContextEntry is one call-stack element: the call-site instruction plus the
// occurrence number of that call within its own enclosing context.
type ContextEntry struct {
	Site ir.ID
	Seq  int
}

// Context is a full call stack from the program entry point down to the
// frame containing the program point, per the paper ("determinacy facts
// inferred by our dynamic analysis are always qualified with a complete call
// stack").
type Context []ContextEntry

// Key renders a context as a compact map key.
func (c Context) Key() string {
	return string(appendContext(make([]byte, 0, 12*len(c)), c))
}

// appendContext renders c into b exactly as Context.Key does. Fact keys
// are built on every recorded observation — the hottest path of the whole
// instrumented run — so the rendering avoids fmt entirely.
func appendContext(b []byte, c Context) []byte {
	for i, e := range c {
		if i > 0 {
			b = append(b, '>')
		}
		b = strconv.AppendInt(b, int64(e.Site), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(e.Seq), 10)
	}
	return b
}

// Clone returns an independent copy of c.
func (c Context) Clone() Context {
	out := make(Context, len(c))
	copy(out, c)
	return out
}

// ValueKind classifies a snapshotted value.
type ValueKind int

// Snapshot kinds.
const (
	VUndefined ValueKind = iota
	VNull
	VBool
	VNumber
	VString
	VObject
	VFunction
)

// Snapshot is a comparable image of a runtime value. Object identity is
// captured by allocation number, which is only meaningful within a single
// execution: across runs the soundness theorem relates heaps by an address
// bijection µ that is never materialized, so cross-run comparisons must use
// EquivalentAcrossRuns rather than Equal.
type Snapshot struct {
	Kind  ValueKind
	Bool  bool
	Num   float64
	Str   string
	Alloc int
	// FnIndex identifies the ir.Function of closures, which is stable
	// across executions (unlike allocation numbers under indeterminacy).
	FnIndex int
	// Native names built-in functions.
	Native string
}

// Equal reports whether two snapshots denote the same value. NaN equals NaN
// here: facts compare identity of values, not IEEE semantics.
func (s Snapshot) Equal(o Snapshot) bool {
	if s.Kind != o.Kind {
		return false
	}
	switch s.Kind {
	case VUndefined, VNull:
		return true
	case VBool:
		return s.Bool == o.Bool
	case VNumber:
		return s.Num == o.Num || (s.Num != s.Num && o.Num != o.Num)
	case VString:
		return s.Str == o.Str
	case VFunction:
		if s.FnIndex != 0 || o.FnIndex != 0 {
			return s.FnIndex == o.FnIndex
		}
		return s.Native == o.Native
	default:
		return s.Alloc == o.Alloc
	}
}

// EquivalentAcrossRuns reports whether two snapshots taken in different
// executions may denote the same value. Allocation numbers are
// execution-local — an indeterminate branch that allocates a different
// number of objects in each run shifts every later allocation number even
// when the objects themselves correspond under the address bijection µ — so
// plain objects compare by kind only. Function identity (ir.Function index
// or native name) and primitives are stable across runs and compare exactly.
func (s Snapshot) EquivalentAcrossRuns(o Snapshot) bool {
	if s.Kind == VObject {
		return o.Kind == VObject
	}
	return s.Equal(o)
}

// Fact is one determinacy fact.
type Fact struct {
	Instr ir.ID
	Ctx   Context
	// Seq is the occurrence number of the instruction within its activation
	// context (distinct loop iterations of a non-call point).
	Seq int
	// Det reports whether the value is determinate at this point.
	Det bool
	// ctx is the index of Ctx among its store's interned contexts; it
	// packs into Det's padding.
	ctx int32
	// Val is the (first observed) value; meaningful also when Det is false,
	// as the concretely observed value.
	Val Snapshot
	// Hits counts how many times this (instr, ctx, seq) was observed.
	Hits int
}

// factKey identifies a fact within one store: program point, interned
// context and occurrence.
type factKey struct {
	instr ir.ID
	ctx   int32
	seq   int
}

// storeCtx is one distinct context of a store: its Context.Key text and
// the one clone every fact recorded under it shares.
type storeCtx struct {
	key string
	ctx Context
}

// Store accumulates facts from one or more instrumented runs.
type Store struct {
	m     map[factKey]*Fact
	order []*Fact
	// Conflicts records keys where two runs claimed different determinate
	// values — impossible if the analysis is sound; tests assert emptiness.
	// Each key reads "instr|context key|seq".
	Conflicts []string
	// MaxSeq caps per-(instr,ctx) occurrence tracking; occurrences beyond
	// the cap are joined into the fact with Seq == MaxSeq.
	MaxSeq int
	// ctxs interns every context a fact was recorded under, once each;
	// ctxIDs maps a context's key text to its index. Index 0 is the empty
	// context. A run records ~45 facts per distinct context, so facts key
	// by index rather than by text.
	ctxs   []storeCtx
	ctxIDs map[string]int32
	// last is the index of the context Record saw most recently: a frame
	// records all its facts under one context, so most records find theirs
	// by comparing a few entries, without rendering it.
	last int32
	// keyBuf is the scratch buffer Record renders a context's key into.
	// Probing ctxIDs through ctxIDs[string(keyBuf)] compiles to an
	// allocation-free lookup.
	keyBuf []byte
	// arena chunk-allocates Fact values so each first observation costs an
	// amortized slice append instead of an individual heap object. Chunks
	// are abandoned (never reallocated) once full, so &arena[i] pointers
	// stay valid for the life of the store.
	arena []Fact
}

// NewStore creates an empty fact store.
func NewStore() *Store {
	return &Store{
		m:      make(map[factKey]*Fact),
		MaxSeq: 128,
		ctxs:   []storeCtx{{ctx: Context{}}},
		ctxIDs: map[string]int32{"": 0},
	}
}

// internKey returns the index of the context whose key text is key,
// interning a clone of c (whose key it is) when the store has not seen
// it.
func (s *Store) internKey(key string, c Context) int32 {
	id, ok := s.ctxIDs[key]
	if !ok {
		id = int32(len(s.ctxs))
		s.ctxs = append(s.ctxs, storeCtx{key: key, ctx: c.Clone()})
		s.ctxIDs[key] = id
	}
	return id
}

// intern returns the index of context c, interning it when new. It
// checks c against the context of the previous call first.
func (s *Store) intern(c Context) int32 {
	if slices.Equal(c, s.ctxs[s.last].ctx) {
		return s.last
	}
	s.keyBuf = appendContext(s.keyBuf[:0], c)
	id, ok := s.ctxIDs[string(s.keyBuf)]
	if !ok {
		id = s.internKey(string(s.keyBuf), c)
	}
	s.last = id
	return id
}

// find returns the index of context c without interning it.
func (s *Store) find(c Context) (int32, bool) {
	if len(c) == 0 {
		return 0, true
	}
	var buf [64]byte
	id, ok := s.ctxIDs[string(appendContext(buf[:0], c))]
	return id, ok
}

// conflictKey renders a fact's key as Conflicts reports it.
func (s *Store) conflictKey(f *Fact) string {
	b := strconv.AppendInt(nil, int64(f.Instr), 10)
	b = append(append(b, '|'), s.ctxs[f.ctx].key...)
	b = strconv.AppendInt(append(b, '|'), int64(f.Seq), 10)
	return string(b)
}

// newFact hands out the next slot of the current arena chunk, starting a
// fresh chunk when the current one fills. Full chunks are left behind with
// live pointers into them, so the append below can never reallocate.
func (s *Store) newFact() *Fact {
	if len(s.arena) == cap(s.arena) {
		s.arena = make([]Fact, 0, 512)
	}
	s.arena = append(s.arena, Fact{})
	return &s.arena[len(s.arena)-1]
}

// Record adds one observation. Repeated observations of the same point,
// context and occurrence join: any indeterminate observation or value
// mismatch makes the fact indeterminate. The return value reports whether
// this observation invalidated a previously determinate fact (the obs layer
// surfaces these as fact-invalidate events). The store keeps its own clone
// of ctx.
func (s *Store) Record(instr ir.ID, ctx Context, seq int, det bool, val Snapshot) bool {
	_, invalidated := s.record(instr, ctx, seq, det, val)
	return invalidated
}

func (s *Store) record(instr ir.ID, ctx Context, seq int, det bool, val Snapshot) (*Fact, bool) {
	if seq > s.MaxSeq {
		seq = s.MaxSeq
	}
	k := factKey{instr: instr, ctx: s.intern(ctx), seq: seq}
	f, ok := s.m[k]
	if !ok {
		f = s.newFact()
		*f = Fact{Instr: instr, Ctx: s.ctxs[k.ctx].ctx, Seq: seq, Det: det, Val: val, Hits: 1, ctx: k.ctx}
		s.m[k] = f
		s.order = append(s.order, f)
		return f, false
	}
	f.Hits++
	wasDet := f.Det
	if !det {
		f.Det = false
	}
	if f.Det && !f.Val.Equal(val) {
		// Two observations at the nominally same dynamic point disagree:
		// the key did not discriminate the occurrences (occurrence-cap
		// folding, or native-initiated callback frames sharing their
		// parent's context). Joining to indeterminate keeps the store
		// sound.
		f.Det = false
	}
	return f, wasDet && !f.Det
}

// Merge folds facts from another run into s. A determinate fact in either
// store with values that cannot denote the same result marks a conflict
// (analysis bug); a point determinate in one store and absent in the other
// stays as-is — facts from different runs are all sound and combine by
// union (paper §7). Because the two stores come from different executions,
// values compare with EquivalentAcrossRuns: object facts whose allocation
// numbers differ are not conflicts (allocation numbering is run-local), but
// the merged fact keeps only the kind-level claim, so it joins to
// indeterminate rather than asserting either run's allocation number.
func (s *Store) Merge(o *Store) {
	ids := make([]int32, len(o.ctxs))
	for i, c := range o.ctxs {
		ids[i] = s.internKey(c.key, c.ctx)
	}
	for _, of := range o.order {
		k := factKey{instr: of.Instr, ctx: ids[of.ctx], seq: of.Seq}
		f, ok := s.m[k]
		if !ok {
			cp := *of
			cp.Ctx, cp.ctx = s.ctxs[k.ctx].ctx, k.ctx
			s.m[k] = &cp
			s.order = append(s.order, &cp)
			continue
		}
		f.Hits += of.Hits
		switch {
		case f.Det && of.Det && !f.Val.EquivalentAcrossRuns(of.Val):
			f.Det = false
			s.Conflicts = append(s.Conflicts, s.conflictKey(f))
		case f.Det && of.Det && !f.Val.Equal(of.Val):
			// Same value modulo µ but different run-local allocation
			// numbers: neither number is meaningful in the merged store.
			f.Det = false
		case !of.Det:
			f.Det = false
		}
	}
}

// All returns every fact in recording order.
func (s *Store) All() []*Fact { return slices.Clone(s.order) }

// Len reports the number of stored facts.
func (s *Store) Len() int { return len(s.order) }

// NumDeterminate reports how many stored facts are determinate.
func (s *Store) NumDeterminate() int {
	n := 0
	for _, f := range s.order {
		if f.Det {
			n++
		}
	}
	return n
}

// InvalidateSaturated joins every fact in the occurrence-cap bucket
// (Seq == MaxSeq) to indeterminate, reporting how many determinate facts it
// demoted. The cap bucket aggregates ALL occurrences beyond MaxSeq, so its
// facts are only trustworthy once the run that produced them ran to
// completion: a truncated run has observed just a prefix of the bucket's
// occurrences, and an unobserved later occurrence could disagree with the
// recorded value. Partial seals call this before exposing the store.
func (s *Store) InvalidateSaturated() int {
	n := 0
	for _, f := range s.order {
		if f.Seq == s.MaxSeq && f.Det {
			f.Det = false
			n++
		}
	}
	return n
}

// Lookup finds the fact for an exact (instr, ctx, seq) triple. Occurrences
// beyond the cap fold into the cap bucket, mirroring Record. Lookup does
// not write to the store, so concurrent lookups are safe.
func (s *Store) Lookup(instr ir.ID, ctx Context, seq int) (*Fact, bool) {
	if seq > s.MaxSeq {
		seq = s.MaxSeq
	}
	id, ok := s.find(ctx)
	if !ok {
		return nil, false
	}
	f, ok := s.m[factKey{instr: instr, ctx: id, seq: seq}]
	return f, ok
}

// AtInstr returns all facts recorded for a program point, across contexts.
func (s *Store) AtInstr(instr ir.ID) []*Fact {
	var out []*Fact
	for _, f := range s.order {
		if f.Instr == instr {
			out = append(out, f)
		}
	}
	return out
}

// DeterminateAt reports whether every observation of instr (in any context)
// was determinate with the same value, returning that value. This is the
// context-insensitive projection clients use when they do not care about
// stacks.
func (s *Store) DeterminateAt(instr ir.ID) (Snapshot, bool) {
	var val Snapshot
	found := false
	for _, f := range s.AtInstr(instr) {
		if !f.Det {
			return Snapshot{}, false
		}
		if !found {
			val = f.Val
			found = true
		} else if !val.Equal(f.Val) {
			return Snapshot{}, false
		}
	}
	return val, found
}

// Sorted returns facts ordered by instruction, then context key, then
// occurrence, for stable golden output. A store's instruction IDs are
// those of one module, which numbers them densely, so it buckets facts by
// instruction with a counting sort and then sorts each instruction's few
// facts on (context rank, occurrence), where a context's rank is the
// place of its key among the store's distinct context keys.
func (s *Store) Sorted() []*Fact {
	out := make([]*Fact, len(s.order))
	if len(out) == 0 {
		return out
	}
	lo, hi := s.order[0].Instr, s.order[0].Instr
	for _, f := range s.order {
		lo, hi = min(lo, f.Instr), max(hi, f.Instr)
	}
	span := int(hi-lo) + 1
	// end[i] counts, then offsets, then (after placing) ends bucket lo+i.
	end := make([]int, span+1)
	for _, f := range s.order {
		end[f.Instr-lo+1]++
	}
	for i := 1; i < span; i++ {
		end[i] += end[i-1]
	}
	for _, f := range s.order {
		i := f.Instr - lo
		out[end[i]] = f
		end[i]++
	}
	rank := s.ctxRanks()
	byCtx := func(a, b *Fact) int {
		return cmp.Or(cmp.Compare(rank[a.ctx], rank[b.ctx]), cmp.Compare(a.Seq, b.Seq))
	}
	begin := 0
	for _, e := range end[:span] {
		if e-begin > 1 {
			slices.SortFunc(out[begin:e], byCtx)
		}
		begin = e
	}
	return out
}

// ctxRanks returns each interned context's place in key order.
func (s *Store) ctxRanks() []int {
	idx := make([]int, len(s.ctxs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(s.ctxs[a].key, s.ctxs[b].key) })
	rank := make([]int, len(idx))
	for r, i := range idx {
		rank[i] = r
	}
	return rank
}
