package facts

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"determinacy/internal/ir"
)

// Wire is the JSON wire form of a fact: its point, context, occurrence,
// join state, value and hit count. Encode writes one per line, and the
// fact cache stores a run's facts as a list of them.
type Wire struct {
	Instr int      `json:"instr"`
	Ctx   [][2]int `json:"ctx,omitempty"`
	Seq   int      `json:"seq,omitempty"`
	Det   bool     `json:"det"`
	Val   wireSnap `json:"val"`
	Hits  int      `json:"hits,omitempty"`
}

type wireSnap struct {
	Kind int     `json:"kind"`
	Bool bool    `json:"bool,omitempty"`
	Num  float64 `json:"num,omitempty"`
	// NumS carries non-finite numbers ("NaN", "+Inf", "-Inf"), which JSON
	// has no literal for and encoding/json refuses to emit. Without it a
	// store holding a 0/0 fact could not be encoded at all.
	NumS    string `json:"nums,omitempty"`
	Str     string `json:"str,omitempty"`
	Alloc   int    `json:"alloc,omitempty"`
	FnIndex int    `json:"fn,omitempty"`
	Native  string `json:"native,omitempty"`
}

// encodeNum splits a float into its JSON-safe parts. Negative zero also
// travels as a string: omitempty drops a -0.0 Num field (it compares equal
// to zero), which would silently decode as +0.
func encodeNum(n float64) (float64, string) {
	switch {
	case math.IsNaN(n):
		return 0, "NaN"
	case math.IsInf(n, 1):
		return 0, "+Inf"
	case math.IsInf(n, -1):
		return 0, "-Inf"
	case n == 0 && math.Signbit(n):
		return 0, "-0"
	}
	return n, ""
}

func decodeNum(n float64, s string) float64 {
	switch s {
	case "NaN":
		return math.NaN()
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	case "-0":
		return math.Copysign(0, -1)
	}
	return n
}

// Wire returns the fact's wire form.
func (f *Fact) Wire() Wire {
	num, numS := encodeNum(f.Val.Num)
	w := Wire{
		Instr: int(f.Instr), Seq: f.Seq, Det: f.Det, Hits: f.Hits,
		Val: wireSnap{
			Kind: int(f.Val.Kind), Bool: f.Val.Bool, Num: num, NumS: numS,
			Str: f.Val.Str, Alloc: f.Val.Alloc, FnIndex: f.Val.FnIndex,
			Native: f.Val.Native,
		},
	}
	for _, e := range f.Ctx {
		w.Ctx = append(w.Ctx, [2]int{int(e.Site), e.Seq})
	}
	return w
}

// RecordWire records a wire fact through Record and restores its hit
// count. Replaying a store's facts in recording order this way rebuilds
// the same join states, recording order and hit counts.
func (s *Store) RecordWire(w Wire) {
	var ctx Context
	for _, e := range w.Ctx {
		ctx = append(ctx, ContextEntry{Site: ir.ID(e[0]), Seq: e[1]})
	}
	s.recordHits(ir.ID(w.Instr), ctx, w.Seq, w.Det, Snapshot{
		Kind: ValueKind(w.Val.Kind), Bool: w.Val.Bool,
		Num: decodeNum(w.Val.Num, w.Val.NumS),
		Str: w.Val.Str, Alloc: w.Val.Alloc, FnIndex: w.Val.FnIndex,
		Native: w.Val.Native,
	}, w.Hits)
}

// recordHits is Record followed by restoring a copied fact's hit count
// (when above the single observation Record counts).
func (s *Store) recordHits(instr ir.ID, ctx Context, seq int, det bool, val Snapshot, hits int) {
	if f, _ := s.record(instr, ctx, seq, det, val); hits > 1 {
		f.Hits = hits
	}
}

// Encode writes the store as JSON lines, one fact per line, in recording
// order. The format is stable across runs of the same module (instruction
// IDs are deterministic), so cmd/detrun output can feed cmd/detspec.
func (s *Store) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range s.All() {
		if err := enc.Encode(f.Wire()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a store previously written by Encode. Decoded facts merge
// with any facts already present, with the usual join semantics.
func Decode(r io.Reader) (*Store, error) {
	s := NewStore()
	dec := json.NewDecoder(r)
	for {
		var w Wire
		if err := dec.Decode(&w); err == io.EOF {
			return s, nil
		} else if err != nil {
			return nil, fmt.Errorf("facts: decode: %w", err)
		}
		s.RecordWire(w)
	}
}

// Restrict returns a copy of the store containing only facts at program
// points below limit. Multi-run merging uses it to exclude runtime-lowered
// eval code, whose instruction IDs are not stable across executions.
func (s *Store) Restrict(limit ir.ID) *Store {
	out := NewStore()
	out.MaxSeq = s.MaxSeq
	for _, f := range s.All() {
		if f.Instr < limit {
			out.recordHits(f.Instr, f.Ctx, f.Seq, f.Det, f.Val, f.Hits)
		}
	}
	return out
}

// Generalize projects the store onto context-insensitive facts: a program
// point whose every observation (across all contexts and occurrences) is
// determinate with the same value yields one unqualified fact. This is the
// "shallower calling contexts" direction the paper's §7 sketches: such
// facts hold at the point under *any* stack.
func (s *Store) Generalize() *Store {
	out := NewStore()
	byInstr := map[ir.ID][]*Fact{}
	var order []ir.ID
	for _, f := range s.All() {
		if _, seen := byInstr[f.Instr]; !seen {
			order = append(order, f.Instr)
		}
		byInstr[f.Instr] = append(byInstr[f.Instr], f)
	}
	for _, id := range order {
		fs := byInstr[id]
		det := true
		val := fs[0].Val
		hits := 0
		for _, f := range fs {
			hits += f.Hits
			if !f.Det || !val.Equal(f.Val) {
				det = false
			}
		}
		out.recordHits(id, nil, 0, det, val, hits)
	}
	return out
}
