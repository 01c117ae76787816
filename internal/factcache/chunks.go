package factcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"determinacy/internal/ast"
	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
)

// Schema versions the logical cache content (key derivation, chunk and
// manifest shapes) independently of the storage framing: a Schema bump
// changes every key, so old entries become unreachable rather than
// misread.
const Schema = 1

// Recorder accumulates per-function entry observations during a cold run.
// Wire its OnEnter method into core.Options.OnEnterFunc; each activation
// contributes its packed input-determinacy signature (core.EntrySig) and
// the heap-flush epoch at entry. The fold — the AND of all activation
// signatures, the activation count, and the epoch span — becomes part of
// the function's chunk identity: a fact set is only ever reused for a
// function whose body AND whose observed entry determinacy match.
type Recorder struct {
	byFn map[int]*entryObs
}

type entryObs struct {
	sigAnd   uint64
	acts     int
	minEpoch uint64
	maxEpoch uint64
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{byFn: map[int]*entryObs{}} }

// OnEnter observes one function activation; it has the shape of
// core.Options.OnEnterFunc.
func (r *Recorder) OnEnter(fn *ir.Function, sig uint64, epoch uint64) {
	o, ok := r.byFn[fn.Index]
	if !ok {
		r.byFn[fn.Index] = &entryObs{sigAnd: sig, acts: 1, minEpoch: epoch, maxEpoch: epoch}
		return
	}
	o.sigAnd &= sig
	o.acts++
	if epoch < o.minEpoch {
		o.minEpoch = epoch
	}
	if epoch > o.maxEpoch {
		o.maxEpoch = epoch
	}
}

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

// chunkPayload is one function's share of a run: its identity (body hash +
// folded entry determinacy + epoch span) and its facts in recording order.
type chunkPayload struct {
	Schema   int          `json:"schema"`
	Fn       int          `json:"fn"`
	BodyHash string       `json:"body"`
	SigAnd   uint64       `json:"sig"`
	Acts     int          `json:"acts"`
	EpochMin uint64       `json:"emin"`
	EpochMax uint64       `json:"emax"`
	Facts    []facts.Wire `json:"facts"`
}

// manifest stitches a run back together: which chunks participate, the
// global recording-order interleaving across them, and the run outputs
// that must replay byte-identically (console bytes, statistics, handler
// count).
type manifest struct {
	Schema      int      `json:"schema"`
	File        string   `json:"file"`
	SourceHash  string   `json:"src"`
	Chunks      []string `json:"chunks"`
	ChunkFns    []int    `json:"chunk_fns"`
	ChunkBodies []string `json:"chunk_bodies"`
	// Order holds, for each recorded fact in global recording order, the
	// index of the chunk it came from; within one chunk facts already sit
	// in recording order, so per-chunk cursors reconstruct the exact
	// interleaving.
	Order       []int      `json:"order,omitempty"`
	Output      []byte     `json:"output,omitempty"`
	Stats       core.Stats `json:"stats"`
	HandlersRan int        `json:"handlers,omitempty"`
	MaxSeq      int        `json:"maxseq"`
}

// splitChunks groups a completed run's facts by enclosing function,
// preserving recording order within each chunk and returning the global
// interleaving. A fact that maps to no function (impossible for eval-free
// runs, which are the only cacheable ones) fails the split.
func splitChunks(mod *ir.Module, store *facts.Store, rec *Recorder) (chunks []*chunkPayload, order []int, err error) {
	chunkOf := map[int]int{} // function index -> chunk index
	for _, f := range store.All() {
		fn := mod.FuncOf(f.Instr)
		if fn == nil {
			return nil, nil, fmt.Errorf("factcache: fact at instr %d maps to no function", f.Instr)
		}
		ci, ok := chunkOf[fn.Index]
		if !ok {
			ci = len(chunks)
			chunkOf[fn.Index] = ci
			c := &chunkPayload{Schema: Schema, Fn: fn.Index, BodyHash: BodyHash(mod, fn)}
			if rec != nil {
				if o, ok := rec.byFn[fn.Index]; ok {
					c.SigAnd, c.Acts = o.sigAnd, o.acts
					c.EpochMin, c.EpochMax = o.minEpoch, o.maxEpoch
				}
			}
			chunks = append(chunks, c)
		}
		chunks[ci].Facts = append(chunks[ci].Facts, f.Wire())
		order = append(order, ci)
	}
	return chunks, order, nil
}

// stitch rebuilds a fact store from a manifest's chunks by replaying every
// fact through Store.RecordWire in the original global recording order —
// the same step facts.Decode takes — so the result is indistinguishable
// from the store the cold run produced: same join states, same recording
// order, same hit counts. Structural inconsistency
// (cursor over/underrun, out-of-range chunk index) reports an error; the
// caller treats it as corruption.
func stitch(m *manifest, chunks []*chunkPayload) (*facts.Store, error) {
	s := facts.NewStore()
	if m.MaxSeq > 0 {
		s.MaxSeq = m.MaxSeq
	}
	cursors := make([]int, len(chunks))
	for _, ci := range m.Order {
		if ci < 0 || ci >= len(chunks) {
			return nil, fmt.Errorf("factcache: stitch: chunk index %d out of range", ci)
		}
		c := chunks[ci]
		k := cursors[ci]
		if k >= len(c.Facts) {
			return nil, fmt.Errorf("factcache: stitch: chunk %d exhausted", ci)
		}
		cursors[ci]++
		s.RecordWire(c.Facts[k])
	}
	for i, c := range chunks {
		if cursors[i] != len(c.Facts) {
			return nil, fmt.Errorf("factcache: stitch: chunk %d has %d unconsumed facts", i, len(c.Facts)-cursors[i])
		}
	}
	return s, nil
}
