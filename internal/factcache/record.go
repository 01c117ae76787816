package factcache

import (
	"crypto/sha256"
	"encoding/hex"

	"determinacy/internal/ast"
	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// Schema versions the logical cache content (key derivation and record
// shape) independently of the storage framing: a Schema bump changes
// every key, so old entries become unreachable rather than misread.
const Schema = 3

// BodyHash content-addresses a function's source text. Nested functions
// hash their printed declaration — the printer emits no positions, so the
// hash is stable under edits elsewhere in the file, which is what makes
// per-function diffing meaningful. The top level (and runtime-lowered eval
// code, which has no Decl) lexically contains the whole program, so it
// hashes the full source.
func BodyHash(mod *ir.Module, fn *ir.Function) string {
	if fn.Decl != nil {
		return hashString("fn\x00" + ast.PrintExpr(fn.Decl))
	}
	return hashString("top\x00" + mod.Source)
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// record is one completed run: the key id it is stored under, its facts in
// recording order, the body hash of every function that recorded a fact,
// and the run outputs that must replay byte-identically (console bytes,
// statistics, handler count).
type record struct {
	Schema     int          `json:"schema"`
	Key        string       `json:"key"`
	File       string       `json:"file"`
	SourceHash string       `json:"src"`
	Facts      []facts.Wire `json:"facts"`
	// Bodies holds one body hash per function that recorded a fact, in
	// first-fact order; two functions with the same body both appear.
	Bodies      []string   `json:"bodies"`
	Output      []byte     `json:"output,omitempty"`
	Stats       core.Stats `json:"stats"`
	HandlersRan int        `json:"handlers,omitempty"`
	MaxSeq      int        `json:"maxseq"`
}

// newRecord captures a completed run. A fact outside every function (there
// is none in an eval-free run, the only kind stored) names no body.
func newRecord(key Key, mod *ir.Module, store *facts.Store, output []byte, stats core.Stats, handlersRan int) *record {
	r := &record{
		Schema:      Schema,
		Key:         key.id,
		File:        mod.File,
		SourceHash:  hashString(mod.Source),
		Output:      output,
		Stats:       stats,
		HandlersRan: handlersRan,
		MaxSeq:      store.MaxSeq,
		Facts:       make([]facts.Wire, 0, store.Len()),
	}
	seen := map[int]bool{}
	for _, f := range store.All() {
		r.Facts = append(r.Facts, f.Wire())
		if fn := mod.FuncOf(f.Instr); fn != nil && !seen[fn.Index] {
			seen[fn.Index] = true
			r.Bodies = append(r.Bodies, BodyHash(mod, fn))
		}
	}
	return r
}

// replay rebuilds the run's fact store by passing every fact through
// Store.RecordWire in recording order — the step facts.Decode takes — so
// the result has the cold run's join states, recording order and hit
// counts.
func (r *record) replay() *facts.Store {
	s := facts.NewStore()
	if r.MaxSeq > 0 {
		s.MaxSeq = r.MaxSeq
	}
	for _, w := range r.Facts {
		s.RecordWire(w)
	}
	return s
}
