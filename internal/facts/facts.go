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
	// Val is the (first observed) value; meaningful also when Det is false,
	// as the concretely observed value.
	Val Snapshot
	// Hits counts how many times this (instr, ctx, seq) was observed.
	Hits int
}

// Store accumulates facts from one or more instrumented runs.
type Store struct {
	m     map[string]*Fact
	order []string
	// Conflicts records keys where two runs claimed different determinate
	// values — impossible if the analysis is sound; tests assert emptiness.
	Conflicts []string
	// MaxSeq caps per-(instr,ctx) occurrence tracking; occurrences beyond
	// the cap are joined into the fact with Seq == MaxSeq.
	MaxSeq int
	// keyBuf is Record's scratch key buffer. Probing the map through
	// m[string(keyBuf)] compiles to an allocation-free lookup, so repeat
	// observations (the overwhelming majority) cost no heap traffic.
	keyBuf []byte
	// arena chunk-allocates Fact values so each first observation costs an
	// amortized slice append instead of an individual heap object. Chunks
	// are abandoned (never reallocated) once full, so &arena[i] pointers
	// stay valid for the life of the store.
	arena []Fact
	// lastCtxRender/lastCtxClone share one Context clone across facts
	// recorded under the same call stack: a frame records every one of its
	// facts under a single context, so cloning per fact is pure waste.
	lastCtxRender string
	lastCtxClone  Context
}

// NewStore creates an empty fact store.
func NewStore() *Store {
	return &Store{m: make(map[string]*Fact), MaxSeq: 128}
}

func key(instr ir.ID, ctx Context, seq int) string {
	return string(appendKey(nil, instr, ctx, seq))
}

// appendKey renders the map key for (instr, ctx, seq) into b.
func appendKey(b []byte, instr ir.ID, ctx Context, seq int) []byte {
	b = strconv.AppendInt(b, int64(instr), 10)
	b = append(b, '|')
	b = appendContext(b, ctx)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(seq), 10)
	return b
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
// surfaces these as fact-invalidate events).
func (s *Store) Record(instr ir.ID, ctx Context, seq int, det bool, val Snapshot) bool {
	if seq > s.MaxSeq {
		seq = s.MaxSeq
	}
	s.keyBuf = strconv.AppendInt(s.keyBuf[:0], int64(instr), 10)
	s.keyBuf = append(s.keyBuf, '|')
	c0 := len(s.keyBuf)
	s.keyBuf = appendContext(s.keyBuf, ctx)
	c1 := len(s.keyBuf)
	s.keyBuf = append(s.keyBuf, '|')
	s.keyBuf = strconv.AppendInt(s.keyBuf, int64(seq), 10)
	f, ok := s.m[string(s.keyBuf)]
	if !ok {
		k := string(s.keyBuf)
		if s.lastCtxClone == nil || s.lastCtxRender != k[c0:c1] {
			s.lastCtxClone = ctx.Clone()
			s.lastCtxRender = k[c0:c1]
		}
		nf := s.newFact()
		*nf = Fact{Instr: instr, Ctx: s.lastCtxClone, Seq: seq, Det: det, Val: val, Hits: 1}
		s.m[k] = nf
		s.order = append(s.order, k)
		return false
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
	return wasDet && !f.Det
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
	for _, k := range o.order {
		of := o.m[k]
		f, ok := s.m[k]
		if !ok {
			cp := *of
			cp.Ctx = of.Ctx.Clone()
			s.m[k] = &cp
			s.order = append(s.order, k)
			continue
		}
		f.Hits += of.Hits
		switch {
		case f.Det && of.Det && !f.Val.EquivalentAcrossRuns(of.Val):
			f.Det = false
			s.Conflicts = append(s.Conflicts, k)
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
func (s *Store) All() []*Fact {
	out := make([]*Fact, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.m[k])
	}
	return out
}

// Len reports the number of stored facts.
func (s *Store) Len() int { return len(s.m) }

// NumDeterminate reports how many stored facts are determinate.
func (s *Store) NumDeterminate() int {
	n := 0
	for _, k := range s.order {
		if s.m[k].Det {
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
	for _, k := range s.order {
		if f := s.m[k]; f.Seq == s.MaxSeq && f.Det {
			f.Det = false
			n++
		}
	}
	return n
}

// Lookup finds the fact for an exact (instr, ctx, seq) triple. Occurrences
// beyond the cap fold into the cap bucket, mirroring Record.
func (s *Store) Lookup(instr ir.ID, ctx Context, seq int) (*Fact, bool) {
	if seq > s.MaxSeq {
		seq = s.MaxSeq
	}
	f, ok := s.m[key(instr, ctx, seq)]
	return f, ok
}

// AtInstr returns all facts recorded for a program point, across contexts.
func (s *Store) AtInstr(instr ir.ID) []*Fact {
	var out []*Fact
	for _, k := range s.order {
		if f := s.m[k]; f.Instr == instr {
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
// occurrence, for stable golden output. It compares the context part of
// the store's own keys rather than rendering each fact's context again.
func (s *Store) Sorted() []*Fact {
	type entry struct {
		f   *Fact
		ctx string
	}
	es := make([]entry, len(s.order))
	for i, k := range s.order {
		es[i] = entry{s.m[k], k[strings.IndexByte(k, '|')+1 : strings.LastIndexByte(k, '|')]}
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.f.Instr, b.f.Instr), strings.Compare(a.ctx, b.ctx), cmp.Compare(a.f.Seq, b.f.Seq))
	})
	out := make([]*Fact, len(es))
	for i, e := range es {
		out[i] = e.f
	}
	return out
}
