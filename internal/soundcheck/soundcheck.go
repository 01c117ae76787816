// Package soundcheck verifies determinacy facts against concrete
// executions, the dynamic counterpart of the paper's Theorem 1: a fact
// ⟦p⟧ c = v produced by the instrumented semantics must hold in *every*
// concrete execution — whenever a concrete run reaches program point p
// under context c, the value it computes there must be v.
package soundcheck

import (
	"fmt"
	"strings"

	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

// Mismatch is one violated fact: the concrete execution reached the fact's
// program point and context but computed a different value.
type Mismatch struct {
	Instr ir.ID
	Ctx   facts.Context
	Seq   int
	Want  facts.Snapshot
	Got   facts.Snapshot
}

// Checker attaches to a concrete interpreter and checks every executed
// register-defining instruction against a fact store.
type Checker struct {
	Store      *facts.Store
	Mismatches []Mismatch
	// Checked counts how many determinate facts were actually exercised.
	Checked int

	stack []*cframe
}

type cframe struct {
	ctx      facts.Context
	siteSeq  map[ir.ID]int
	instrSeq map[ir.ID]int
}

// New creates a checker over the given fact store.
func New(store *facts.Store) *Checker {
	return &Checker{Store: store}
}

// Attach installs the checker's hooks on a concrete interpreter. The
// interpreter must not have other AfterInstr/frame hooks installed.
func (c *Checker) Attach(it *interp.Interp) {
	c.stack = []*cframe{{}}
	it.OnEnterFrame = func(site ir.ID) {
		parent := c.stack[len(c.stack)-1]
		ctx := parent.ctx
		if site >= 0 {
			if parent.siteSeq == nil {
				parent.siteSeq = make(map[ir.ID]int)
			}
			seq := parent.siteSeq[site]
			parent.siteSeq[site] = seq + 1
			ctx = append(parent.ctx.Clone(), facts.ContextEntry{Site: site, Seq: seq})
		}
		c.stack = append(c.stack, &cframe{ctx: ctx})
	}
	it.OnLeaveFrame = func() {
		c.stack = c.stack[:len(c.stack)-1]
	}
	it.AfterInstr = func(in ir.Instr, val interp.Value) {
		top := c.stack[len(c.stack)-1]
		if top.instrSeq == nil {
			top.instrSeq = make(map[ir.ID]int)
		}
		seq := top.instrSeq[in.IID()]
		top.instrSeq[in.IID()] = seq + 1
		if seq > c.Store.MaxSeq {
			seq = c.Store.MaxSeq
		}
		f, ok := c.Store.Lookup(in.IID(), top.ctx, seq)
		if !ok || !f.Det {
			return
		}
		got := interp.Snapshot(val)
		if !snapshotsCompatible(f.Val, got) {
			c.Mismatches = append(c.Mismatches, Mismatch{
				Instr: in.IID(), Ctx: top.ctx.Clone(), Seq: seq, Want: f.Val, Got: got,
			})
			return
		}
		c.Checked++
	}
}

// snapshotsCompatible compares a fact value against a concrete observation.
// Primitives and function identities compare exactly; plain objects compare
// by kind only, since allocation numbering is interpreter-local (Theorem 1's
// address bijection µ is not materialized across interpreters).
func snapshotsCompatible(want, got facts.Snapshot) bool {
	if want.Kind == facts.VObject {
		return got.Kind == facts.VObject
	}
	if want.Kind == facts.VFunction {
		if got.Kind != facts.VFunction {
			return false
		}
		if want.FnIndex != 0 || got.FnIndex != 0 {
			return want.FnIndex == got.FnIndex
		}
		return want.Native == got.Native
	}
	return want.Equal(got)
}

// Report renders mismatches for test output.
func (c *Checker) Report(mod *ir.Module) string {
	var b strings.Builder
	rr := facts.NewRenderer(mod)
	for _, m := range c.Mismatches {
		fmt.Fprintf(&b, "UNSOUND fact at %s ctx=%s seq=%d: predicted %s, concrete run computed %s\n",
			rr.AppendPoint(nil, m.Instr), m.Ctx.Key(), m.Seq, m.Want, m.Got)
	}
	return b.String()
}
