package facts

import (
	"strconv"

	"determinacy/internal/ir"
)

// Renderer renders facts against one module. Facts outnumber the program
// points and call stacks they qualify many times over (one point yields a
// fact per context and occurrence), so a Renderer builds each
// instruction's label and each distinct context's text at most once and
// reuses it for every fact that shares it. Use one Renderer per call that
// renders a batch of facts; it is not safe for concurrent use.
type Renderer struct {
	mod *ir.Module
	// labels is indexed by instruction ID, up to the module's NumInstrs,
	// so instructions lowered from eval into a run layer are covered too.
	labels []label
	// ctxs memoizes Context. The store shares one Context clone among the
	// facts recorded under one call stack, so the clone's first element
	// and length identify the stack without rendering it.
	ctxs map[ctxKey]string
	buf  []byte
}

// label is how a program point renders. point is empty until the label
// is built; ir.InstrString never returns "".
type label struct {
	point     string
	line, col int32
}

type ctxKey struct {
	first  *ContextEntry
	n, seq int
}

// NewRenderer returns a renderer for facts recorded against m.
func NewRenderer(m *ir.Module) *Renderer {
	return &Renderer{mod: m, labels: make([]label, m.NumInstrs), ctxs: map[ctxKey]string{}}
}

// label returns the label of instruction id, building it on first use;
// ok is false when the module does not know id.
func (r *Renderer) label(id ir.ID) (l *label, ok bool) {
	if id < 0 || int(id) >= len(r.labels) {
		return nil, false
	}
	l = &r.labels[id]
	if l.point == "" {
		in := r.mod.InstrAt(id)
		if in == nil {
			return nil, false
		}
		pos := in.IPos()
		*l = label{point: ir.InstrString(in), line: int32(pos.Line), col: int32(pos.Col)}
	}
	return l, true
}

// Point returns the instruction text and source position of program
// point id, or "", 0, 0 when the module does not know it.
func (r *Renderer) Point(id ir.ID) (text string, line, col int) {
	if l, ok := r.label(id); ok {
		return l.point, int(l.line), int(l.col)
	}
	return "", 0, 0
}

// AppendPoint appends "text @line:col" for program point id, or "#id"
// when the module does not know it.
func (r *Renderer) AppendPoint(b []byte, id ir.ID) []byte {
	l, ok := r.label(id)
	if !ok {
		return strconv.AppendInt(append(b, '#'), int64(id), 10)
	}
	b = append(append(b, l.point...), " @"...)
	b = strconv.AppendInt(b, int64(l.line), 10)
	return strconv.AppendInt(append(b, ':'), int64(l.col), 10)
}

// appendSites appends a call stack as L<line>_<seq> entries joined by →.
// A call site the module does not know renders as <id>_<seq> when
// keepUnknown is set and as nothing otherwise.
func (r *Renderer) appendSites(b []byte, c Context, keepUnknown bool) []byte {
	for i, e := range c {
		if i > 0 {
			b = append(b, "→"...)
		}
		if l, ok := r.label(e.Site); ok {
			b = strconv.AppendInt(append(b, 'L'), int64(l.line), 10)
		} else if keepUnknown {
			b = strconv.AppendInt(b, int64(e.Site), 10)
		} else {
			continue
		}
		b = strconv.AppendInt(append(b, '_'), int64(e.Seq), 10)
	}
	return b
}

func appendOcc(b []byte, seq int) []byte {
	return append(strconv.AppendInt(append(b, "(occ "...), int64(seq), 10), ')')
}

// Context renders a fact's qualifying call stack and occurrence the way
// the public determinacy.Fact carries it: "L14_2→L12_1(occ 1)", "" for a
// top-level fact's first occurrence. Call sites the module does not know
// are left out. Each distinct (Context, Seq) renders once per Renderer.
func (r *Renderer) Context(f *Fact) string {
	if len(f.Ctx) == 0 && f.Seq == 0 {
		return ""
	}
	k := ctxKey{n: len(f.Ctx), seq: f.Seq}
	if k.n > 0 {
		k.first = &f.Ctx[0]
	}
	if s, ok := r.ctxs[k]; ok {
		return s
	}
	b := r.appendSites(r.buf[:0], f.Ctx, false)
	if f.Seq > 0 {
		b = appendOcc(b, f.Seq)
	}
	r.buf = b
	s := string(b)
	r.ctxs[k] = s
	return s
}

// AppendFact appends one fact in the paper's notation:
//
//	[[ r2 = r0 + r1 @10:31 ]] L14_2→L12_1 (occ 1) = 3
//
// "·" stands for the empty context and "?" for an indeterminate value. A
// point the module does not know renders as #<id>, a call site as
// <id>_<seq>.
func (r *Renderer) AppendFact(b []byte, f *Fact) []byte {
	b = r.AppendPoint(append(b, "[[ "...), f.Instr)
	b = append(b, " ]] "...)
	if len(f.Ctx) == 0 {
		b = append(b, "·"...)
	}
	b = r.appendSites(b, f.Ctx, true)
	if f.Seq > 0 {
		b = appendOcc(append(b, ' '), f.Seq)
	}
	b = append(b, " = "...)
	if !f.Det {
		return append(b, '?')
	}
	return f.Val.AppendTo(b)
}

// Render formats facts one per line in the notation of AppendFact.
func Render(m *ir.Module, fs []*Fact) string {
	r := NewRenderer(m)
	var b []byte
	for _, f := range fs {
		b = append(r.AppendFact(b, f), '\n')
	}
	return string(b)
}

// RenderFact formats one fact in the notation of AppendFact.
func RenderFact(m *ir.Module, f *Fact) string {
	return string(NewRenderer(m).AppendFact(nil, f))
}

// AppendTo appends the value as facts display it: a number in Go's
// shortest form ("NaN", "+Inf", "-0", "1e+21"), a string quoted with Go
// escapes, a closure as fn#<index>, a built-in as native:<name> and an
// object as obj#<allocation>.
func (s Snapshot) AppendTo(b []byte) []byte {
	switch s.Kind {
	case VUndefined:
		return append(b, "undefined"...)
	case VNull:
		return append(b, "null"...)
	case VBool:
		return strconv.AppendBool(b, s.Bool)
	case VNumber:
		return strconv.AppendFloat(b, s.Num, 'g', -1, 64)
	case VString:
		return strconv.AppendQuote(b, s.Str)
	case VFunction:
		if s.Native != "" {
			return append(append(b, "native:"...), s.Native...)
		}
		return strconv.AppendInt(append(b, "fn#"...), int64(s.FnIndex), 10)
	default:
		return strconv.AppendInt(append(b, "obj#"...), int64(s.Alloc), 10)
	}
}

// String renders the value as AppendTo does.
func (s Snapshot) String() string {
	switch s.Kind {
	case VUndefined:
		return "undefined"
	case VNull:
		return "null"
	case VBool:
		return strconv.FormatBool(s.Bool)
	}
	var buf [32]byte
	return string(s.AppendTo(buf[:0]))
}
