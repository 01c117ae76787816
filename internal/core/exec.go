package core

import (
	"errors"
	"fmt"

	"determinacy/internal/facts"
	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
)

// outKind enumerates statement completions. oCFAbort is internal: it unwinds
// to the nearest counterfactual boundary when the counterfactual must be
// abandoned (external native, §4).
type outKind int

const (
	oNormal outKind = iota
	oReturn
	oBreak
	oContinue
	oThrow
	oFail
	oCFAbort
)

type outcome struct {
	kind outKind
	val  Value
	err  error
	// pathIndet marks abrupt completions whose occurrence is
	// control-dependent on indeterminate state: other executions may not
	// perform this throw/return at all. A catch block entered by such a
	// throw executes under an indeterminacy frame (rule ÎF1 applied to the
	// exceptional edge).
	pathIndet bool
}

var okOut = outcome{kind: oNormal}

func failed(err error) outcome { return outcome{kind: oFail, err: err} }

func (a *Analysis) throwError(name, msg string, det bool) outcome {
	return outcome{kind: oThrow, val: ObjV(a.NewErrorObj(name, msg, det), det)}
}

// InCounterfactual reports whether execution is currently counterfactual.
func (a *Analysis) InCounterfactual() bool { return a.cfDepth > 0 }

// Run executes the module top level under the instrumented semantics,
// populating the fact store. It is a guard boundary: a panic anywhere in
// the instrumented execution returns as a structured *guard.RunError
// carrying the phase, the active program point and the recovered stack,
// instead of crashing the caller.
func (a *Analysis) Run() (v Value, err error) {
	defer guard.Boundary(&err, "exec", a.CurrentPoint)
	// The run is over: drop the recycled branch frames and their journal
	// arenas.
	defer func() { a.bfPool = nil }()
	top := a.Mod.Top()
	f := &DFrame{
		Fn:       top,
		Env:      a.newEnv(nil, top),
		Regs:     make([]Value, top.NumRegs),
		CallSite: -1,
	}
	a.frames = append(a.frames, f)
	defer func() { a.frames = a.frames[:len(a.frames)-1] }()
	// Poll once before executing anything (without counting an injector
	// hit): a context that is already dead must stop even a program too
	// short to reach a step checkpoint.
	if a.stopped == nil {
		if ierr := guard.CheckInterrupt(a.opts.Ctx); ierr != nil {
			a.stopped = ierr
		}
	}
	out := a.execBlock(f, top.Body)
	switch out.kind {
	case oNormal, oReturn:
		return out.val, nil
	case oThrow:
		return out.val, &Thrown{Val: out.val}
	case oFail:
		return Value{Kind: Undefined}, out.err
	default:
		return Value{Kind: Undefined}, fmt.Errorf("core: abrupt completion %d escaped top level", out.kind)
	}
}

// CallFunction invokes a function value from native models or embedders
// (e.g. the DOM event loop).
func (a *Analysis) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	out := a.callValue(fn, this, args, -1)
	switch out.kind {
	case oThrow:
		return out.val, &Thrown{Val: out.val}
	case oFail:
		return Value{Kind: Undefined}, out.err
	case oCFAbort:
		return Value{Kind: Undefined}, errCFAbort
	default:
		return out.val, nil
	}
}

// errCFAbort carries the counterfactual-abort signal through native
// callback boundaries.
var errCFAbort = errors.New("core: counterfactual aborted")

// ---------------------------------------------------------------------------

func (a *Analysis) execBlock(f *DFrame, b *ir.Block) outcome {
	for _, in := range b.Instrs {
		a.stats.Steps++
		if a.stats.Steps > a.opts.MaxSteps {
			return failed(ErrBudget)
		}
		if a.stats.Steps&(interruptEvery-1) == 0 {
			a.checkpoint()
		}
		if a.stopped != nil {
			return failed(a.stopped)
		}
		a.curIn = in
		out := a.execInstr(f, in)
		if out.kind != oNormal {
			return out
		}
	}
	// A statement may absorb an interrupt without failing — a counterfactual
	// undoes and taints instead of propagating — so re-check at block exit;
	// otherwise a stop inside a trailing branch would let the run report
	// full (unsealed) completion.
	if a.stopped != nil {
		return failed(a.stopped)
	}
	return okOut
}

// setReg writes a register with journaling so branch post-processing can
// mark or undo expression temporaries (e.g. the result registers of lowered
// && / || / ?: expressions).
func (a *Analysis) setReg(f *DFrame, r ir.Reg, v Value) {
	a.journalReg(f.Regs, r)
	if a.opts.ImmediateTaint && a.inIndetBranch() {
		v.Det = false
	}
	f.Regs[r] = v
}

// define writes a register and records the determinacy fact for the
// defining instruction.
func (a *Analysis) define(f *DFrame, in ir.Instr, r ir.Reg, v Value) {
	a.setReg(f, r, v)
	a.record(f, in, f.Regs[r])
}

func (a *Analysis) execInstr(f *DFrame, in ir.Instr) outcome {
	switch in := in.(type) {
	case *ir.Const:
		a.define(f, in, in.Dst, annotate(interp.LitValue(in.Val), true)) // constants are determinate (§2.1)
	case *ir.Move:
		a.define(f, in, in.Dst, f.Regs[in.Src])
	case *ir.LoadVar:
		a.define(f, in, in.Dst, a.loadSlot(f.Env, in.Var.Hops, in.Var.Slot))
	case *ir.StoreVar:
		a.storeSlot(f.Env, in.Var.Hops, in.Var.Slot, f.Regs[in.Src])
	case *ir.LoadGlobal:
		v, found, pathDet := a.lookup(a.Global, in.Name)
		if !found && !in.ForTypeof {
			return a.throwError("ReferenceError", in.Name+" is not defined", pathDet)
		}
		a.define(f, in, in.Dst, v)
	case *ir.StoreGlobal:
		a.setOwn(a.Global, in.Name, f.Regs[in.Src])
	case *ir.MakeClosure:
		a.define(f, in, in.Dst, ObjV(a.NewClosureObj(in.Fn, f.Env), true))
	case *ir.MakeObject:
		o := a.NewPlainObj()
		for _, p := range in.Props {
			a.setOwn(o, p.Key, f.Regs[p.Val])
		}
		a.define(f, in, in.Dst, ObjV(o, true))
	case *ir.MakeArray:
		elems := make([]Value, len(in.Elems))
		for i, r := range in.Elems {
			elems[i] = f.Regs[r]
		}
		a.define(f, in, in.Dst, ObjV(a.NewArrayObj(elems), true))
	case *ir.GetField:
		v, out := a.getProp(f.Regs[in.Obj], in.Name, true)
		if out.kind != oNormal {
			return out
		}
		a.define(f, in, in.Dst, v)
	case *ir.GetProp:
		// Rule L̂D: the result carries both the base's and the property
		// name's annotations: (v̂^d)^d'.
		name, nameDet := a.toString(f.Regs[in.Prop])
		v, out := a.getProp(f.Regs[in.Obj], name, nameDet)
		if out.kind != oNormal {
			return out
		}
		a.define(f, in, in.Dst, v)
	case *ir.SetField:
		return a.execStore(f.Regs[in.Obj], in.Name, true, f.Regs[in.Src])
	case *ir.SetProp:
		name, nameDet := a.toString(f.Regs[in.Prop])
		return a.execStore(f.Regs[in.Obj], name, nameDet, f.Regs[in.Src])
	case *ir.DelField:
		v, out := a.execDelete(f.Regs[in.Obj], in.Name, true)
		if out.kind != oNormal {
			return out
		}
		a.define(f, in, in.Dst, v)
	case *ir.DelProp:
		name, nameDet := a.toString(f.Regs[in.Prop])
		v, out := a.execDelete(f.Regs[in.Obj], name, nameDet)
		if out.kind != oNormal {
			return out
		}
		a.define(f, in, in.Dst, v)
	case *ir.BinOp:
		v, out := a.binOp(in.Op, f.Regs[in.L], f.Regs[in.R])
		if out.kind != oNormal {
			return out
		}
		a.define(f, in, in.Dst, v)
	case *ir.UnOp:
		a.define(f, in, in.Dst, a.unOp(in.Op, f.Regs[in.X]))
	case *ir.Call:
		return a.execCall(f, in)
	case *ir.New:
		return a.execNew(f, in)
	case *ir.If:
		return a.execIf(f, in)
	case *ir.While:
		return a.execWhile(f, in)
	case *ir.ForIn:
		return a.execForIn(f, in)
	case *ir.Return:
		v := UndefD
		if in.Src != ir.NoReg {
			v = f.Regs[in.Src]
		}
		return outcome{kind: oReturn, val: v}
	case *ir.Throw:
		return outcome{kind: oThrow, val: f.Regs[in.Src]}
	case *ir.Break:
		return outcome{kind: oBreak}
	case *ir.Continue:
		return outcome{kind: oContinue}
	case *ir.Try:
		return a.execTry(f, in)
	default:
		return failed(fmt.Errorf("core: unknown instruction %T", in))
	}
	return okOut
}

// ---------------------------------------------------------------------------
// Property access

func (a *Analysis) getProp(base Value, name string, nameDet bool) (Value, outcome) {
	switch base.Kind {
	case Object:
		if g, ok := base.O.findGetter(name); ok {
			v, err := g(a, base, nil)
			if err != nil {
				return Value{}, a.nativeErrOutcome(err)
			}
			return v.WithDet(base.Det).WithDet(nameDet), okOut
		}
		v, _, _ := a.lookup(base.O, name)
		return v.WithDet(base.Det).WithDet(nameDet), okOut
	case String:
		if name == "length" {
			return NumberV(float64(len(base.S)), base.Det && nameDet), okOut
		}
		if idx, ok := interp.ArrayIndex(name); ok {
			det := base.Det && nameDet
			if idx < len(base.S) {
				return StringV(string(base.S[idx]), det), okOut
			}
			return Value{Kind: Undefined, Det: det}, okOut
		}
		// Method lookup on a primitive resolves through the (shared)
		// prototype regardless of the primitive's value, so an
		// indeterminate receiver does not make the method identity
		// indeterminate — this keeps s.charAt() on an indeterminate string
		// from flushing the heap (§4: string models).
		v, _, _ := a.lookup(a.StringProto, name)
		return v.WithDet(nameDet), okOut
	case Number:
		v, _, _ := a.lookup(a.NumberProto, name)
		return v.WithDet(nameDet), okOut
	case Bool:
		v, _, _ := a.lookup(a.BooleanProto, name)
		return v.WithDet(nameDet), okOut
	default:
		return Value{}, a.throwError("TypeError",
			fmt.Sprintf("cannot read property %q of %s", name, base.Kind), base.Det && nameDet)
	}
}

// execStore implements rule ŜTO: the write happens on the concrete target;
// an indeterminate base flushes the heap (the write may land anywhere in
// other executions); an indeterminate property name opens the record.
// nativeErrOutcome converts a native callback error to an outcome.
func (a *Analysis) nativeErrOutcome(err error) outcome {
	if errors.Is(err, errCFAbort) {
		return outcome{kind: oCFAbort}
	}
	var th *Thrown
	if errors.As(err, &th) {
		return outcome{kind: oThrow, val: th.Val}
	}
	return failed(err)
}

func (a *Analysis) execStore(base Value, name string, nameDet bool, v Value) outcome {
	switch base.Kind {
	case Object:
		if s, ok := base.O.findSetter(name); ok {
			if a.cfDepth > 0 {
				// Accessor setters reach host state that the journal cannot
				// undo: abort the counterfactual (§4).
				return outcome{kind: oCFAbort}
			}
			if _, err := s(a, base, []Value{v}); err != nil {
				return a.nativeErrOutcome(err)
			}
			if !base.Det {
				a.FlushHeap("indet-store-base")
			}
			return okOut
		}
		if !nameDet {
			a.setOwn(base.O, name, v.Indet())
			a.openRecord(base.O, false)
		} else {
			a.setOwn(base.O, name, v)
		}
		if !base.Det {
			a.FlushHeap("indet-store-base")
		}
		return okOut
	case String, Number, Bool:
		return okOut
	default:
		return a.throwError("TypeError",
			fmt.Sprintf("cannot set property %q of %s", name, base.Kind), base.Det && nameDet)
	}
}

func (a *Analysis) execDelete(base Value, name string, nameDet bool) (Value, outcome) {
	switch base.Kind {
	case Object:
		a.deleteProp(base.O, name)
		if !nameDet {
			// Any property might have been the target in other executions.
			a.openRecord(base.O, true)
		}
		if !base.Det {
			a.FlushHeap("indet-delete-base")
		}
		fallthrough
	case String, Number, Bool:
		// Mini-JS has no non-configurable properties, so delete always
		// succeeds, whether or not the property existed.
		return BoolV(true, base.Det && nameDet), okOut
	default:
		return Value{}, a.throwError("TypeError",
			fmt.Sprintf("cannot delete property %q of %s", name, base.Kind), base.Det && nameDet)
	}
}

// ---------------------------------------------------------------------------
// Operators. Rule P̂RIMOP: the result carries (pv₃^d1)^d2.

func (a *Analysis) binOp(op string, l, r Value) (Value, outcome) {
	det := l.Det && r.Det
	switch op {
	case "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>", "<", ">", "<=", ">=":
		if l.Kind != Object && r.Kind != Object {
			// The common case needs no conversion; skipping operand
			// keeps arithmetic as cheap as before the kernels were shared.
			v, _ := interp.BinOp(op, prim(l), prim(r))
			return annotate(v, det), okOut
		}
		lp, ld := a.operand(l)
		rp, rd := a.operand(r)
		v, _ := interp.BinOp(op, lp, rp)
		return annotate(v, det && ld && rd), okOut
	case "==", "!=":
		eq, convDet := a.looseEquals(l, r)
		return BoolV(eq == (op == "=="), det && convDet), okOut
	case "===":
		return BoolV(strictEquals(l, r), det), okOut
	case "!==":
		return BoolV(!strictEquals(l, r), det), okOut
	case "||#":
		return BoolV(a.toBool(l) || a.toBool(r), det), okOut
	case "in":
		if r.Kind != Object {
			return Value{}, a.throwError("TypeError", "'in' requires an object", det)
		}
		name, nameDet := a.toString(l)
		present, presDet := a.has(r.O, name)
		return BoolV(present, det && nameDet && presDet), okOut
	case "instanceof":
		if !r.IsCallable() {
			return Value{}, a.throwError("TypeError", "right-hand side of instanceof is not callable", det)
		}
		pv, hasProto := a.getOwn(r.O, "prototype")
		det = det && pv.Det
		if !hasProto || pv.Kind != Object {
			return BoolV(false, det), okOut
		}
		if l.Kind != Object {
			return BoolV(false, det), okOut
		}
		for cur := l.O; cur != nil; cur = cur.Proto {
			if !cur.ProtoDet {
				det = false
			}
			if cur.Proto == pv.O {
				return BoolV(true, det), okOut
			}
		}
		return BoolV(false, det), okOut
	default:
		return Value{}, failed(fmt.Errorf("core: unknown binary operator %q", op))
	}
}

func (a *Analysis) unOp(op string, x Value) Value {
	switch op {
	case "!":
		return BoolV(!a.toBool(x), x.Det)
	case "typeof":
		return StringV(a.typeOf(x), x.Det)
	}
	// The numeric operators convert their operand first.
	p, det := a.operand(x)
	return annotate(interp.UnOp(op, p), det)
}

// ---------------------------------------------------------------------------
// Conditionals: rules ÎF1, ÎF2-DET, CNTR, CNTRABORT

func (a *Analysis) execIf(f *DFrame, in *ir.If) outcome {
	cond := f.Regs[in.Cond]
	truthy := a.toBool(cond)

	if cond.Det {
		// Rules ÎF1 (determinate true) and ÎF2-DET: ordinary execution.
		if truthy {
			return a.execBlock(f, in.Then)
		}
		if in.Else != nil {
			return a.execBlock(f, in.Else)
		}
		return okOut
	}

	taken, untaken := in.Then, in.Else
	if !truthy {
		taken, untaken = in.Else, in.Then
	}

	// Rule ÎF1 with an indeterminate condition: execute the taken branch,
	// then mark everything it wrote indeterminate.
	if taken != nil {
		bf := a.pushBranch(false)
		out := a.execBlock(f, taken)
		a.popBranch(bf)
		a.markIndeterminate(bf)
		a.releaseBranch(bf)
		if out.kind != oNormal {
			return a.escapeIndet(out)
		}
	}

	// Rule CNTR: counterfactually execute the branch that was not taken.
	if untaken != nil {
		a.counterfactual(f, untaken)
	}
	return okOut
}

// escapeIndet handles an abrupt completion crossing out of a branch guarded
// by an indeterminate condition. Other executions may not perform this
// escape and would go on executing code whose effects we cannot see, so the
// state is conservatively flushed and the completion value marked
// indeterminate. This is the conservative control-flow merge of §4
// ("adjusts determinacy information at every control flow merge point").
func (a *Analysis) escapeIndet(out outcome) outcome {
	if out.kind == oFail || out.kind == oCFAbort {
		return out
	}
	a.flushAll("indet-branch-escape")
	out.val = out.val.Indet()
	out.pathIndet = true
	return out
}

// counterfactual executes a block that concrete execution skips (rule CNTR),
// then undoes its writes and marks them indeterminate. Rule CNTRABORT
// applies beyond the nesting cut-off or when ablated: flush the heap and
// mark the block's static write set.
func (a *Analysis) counterfactual(f *DFrame, b *ir.Block) {
	if a.opts.DisableCounterfactual || a.cfDepth >= a.opts.MaxCounterfactualDepth {
		a.stats.CFAborts++
		a.flushAll("cntr-abort")
		a.markStaticWrites(f, b)
		f.allSeqTainted = true
		return
	}
	// Counterfactual execution must not leak into real state: the PRNG is
	// part of that state (a counterfactual Math.random call would otherwise
	// desynchronize the instrumented run from concrete runs).
	savedRng := a.rng
	bf := a.pushBranch(true)
	out := a.execBlock(f, b)
	a.popBranch(bf)
	a.rng = savedRng
	switch out.kind {
	case oNormal:
		a.undoAndMark(bf)
	case oFail:
		a.undoOnly(bf)
		f.allSeqTainted = true
		if a.stopped == nil && out.err != nil && !errors.Is(out.err, ErrFlushLimit) {
			// Resource exhaustion inside a counterfactual is contained
			// conservatively rather than aborting the whole analysis.
			a.flushAll("cf-abort")
			a.stats.CFAborts++
		}
	default:
		// A throw, return, break, continue or explicit abort escaping the
		// counterfactual: abandon it (§4) and flush conservatively. The
		// unexecuted remainder poisons occurrence numbering in this frame.
		a.undoOnly(bf)
		a.flushAll("cf-abort")
		a.stats.CFAborts++
		f.allSeqTainted = true
	}
	a.releaseBranch(bf)
}

// ---------------------------------------------------------------------------
// Loops. The paper treats while via the desugaring
// while(x){s} ≡ if(x){s; while(x){s}}, so an indeterminate-true condition
// puts the entire rest of the loop under one ÎF1 frame, and an
// indeterminate-false condition counterfactually executes one more body
// followed (recursively, up to the cut-off) by the rest of the loop.
//
// Read literally, each indeterminate-true iteration opens a frame nested in
// the previous one, and all of them end at the loop exit. One frame, opened
// at the first such iteration and marked once at the exit, leaves the same
// state:
//   - Its journal is the nested frames' journals concatenated, less the
//     records an inner branch's merge drops because an earlier iteration
//     already journaled the location. Such a record is never the first for
//     its location, so the enclosing frame receives the same first record
//     per location.
//   - Marks are joins, and the inner branch already applied the dropped
//     record's marks when it popped.
func (a *Analysis) execWhile(f *DFrame, in *ir.While) outcome {
	var bf *branchFrame // the loop's ÎF1 frame, if one was opened
	finish := func(out outcome) outcome {
		if bf != nil {
			a.popBranch(bf)
			a.markIndeterminate(bf)
			a.applyLoopTaints(bf)
			a.releaseBranch(bf)
			switch out.kind {
			case oNormal:
			case oBreak:
				// The loop exit is itself control-dependent on an
				// indeterminate condition: other executions may
				// iterate further.
				a.flushAll("indet-loop-escape")
			default:
				return a.escapeIndet(out)
			}
		}
		if out.kind == oBreak {
			return okOut
		}
		return out
	}

	first := true
	for {
		if !(in.PostTest && first) {
			if out := a.execBlock(f, in.CondBlock); out.kind != oNormal {
				return finish(out)
			}
			cond := f.Regs[in.Cond]
			truthy := a.toBool(cond)
			switch {
			case cond.Det && !truthy:
				return finish(okOut)
			case cond.Det && truthy:
				// fall through to the body
			case !cond.Det && truthy:
				// The first indeterminate-true iteration opens the loop's
				// frame; later ones run inside it. A loop that is itself
				// inside another loop can be re-entered: its occurrence
				// indices only align across executions within a single
				// entry, so its frame must taint like a branch frame
				// there. A non-reentrant loop's k-th body arrival is
				// iteration k in every execution, keeping facts like the
				// paper's 24_0/24_1 determinate.
				if bf != nil {
					break
				}
				if a.Mod.IsReentrant(in.ID) {
					bf = a.pushBranch(false)
				} else {
					bf = a.pushLoopBranch(false)
				}
			default: // indeterminate false: counterfactual tail, then exit
				a.cfLoopTail(f, in)
				return finish(okOut)
			}
		}
		first = false

		out := a.execBlock(f, in.Body)
		switch out.kind {
		case oNormal, oContinue:
			if in.Update != nil {
				if uout := a.execBlock(f, in.Update); uout.kind != oNormal {
					return finish(uout)
				}
			}
		case oBreak:
			return finish(outcome{kind: oBreak})
		default:
			return finish(out)
		}
	}
}

// cfLoopTail counterfactually executes one more iteration (body, update)
// followed by the remainder of the loop, mirroring the desugaring. The
// recursion through execWhile bounds itself via the counterfactual depth.
func (a *Analysis) cfLoopTail(f *DFrame, in *ir.While) {
	if a.opts.DisableCounterfactual || a.cfDepth >= a.opts.MaxCounterfactualDepth {
		a.stats.CFAborts++
		a.flushAll("cntr-abort")
		a.markStaticWrites(f, in.Body)
		if in.Update != nil {
			a.markStaticWrites(f, in.Update)
		}
		a.markStaticWrites(f, in.CondBlock)
		f.allSeqTainted = true
		return
	}
	savedRng := a.rng
	var bf *branchFrame
	if a.Mod.IsReentrant(in.ID) {
		bf = a.pushBranch(true) // see execWhile: re-enterable loop
	} else {
		bf = a.pushLoopBranch(true)
	}
	out := a.execBlock(f, in.Body)
	if out.kind == oNormal || out.kind == oContinue {
		if in.Update != nil {
			out = a.execBlock(f, in.Update)
		} else {
			out = okOut
		}
	}
	if out.kind == oNormal {
		// Continue the loop counterfactually; a nested indeterminate-false
		// condition recurses into cfLoopTail at depth+1.
		rest := *in
		rest.PostTest = false
		out = a.execWhile(f, &rest)
	}
	if out.kind == oBreak {
		out = okOut
	}
	a.popBranch(bf)
	a.rng = savedRng
	switch out.kind {
	case oNormal:
		a.undoAndMark(bf)
	case oFail:
		a.undoOnly(bf)
		f.allSeqTainted = true
	default:
		a.undoOnly(bf)
		a.flushAll("cf-abort")
		a.stats.CFAborts++
		f.allSeqTainted = true
	}
	a.applyLoopTaints(bf)
	a.releaseBranch(bf)
}

// execForIn iterates property names. When the key set is determinate the
// loop variable is determinate per iteration (§5.2: determinate property
// sets iterate in determinate order); otherwise the whole loop runs under an
// indeterminacy frame and is followed by a conservative flush, since other
// executions may iterate different keys entirely.
func (a *Analysis) execForIn(f *DFrame, in *ir.ForIn) outcome {
	obj := f.Regs[in.Obj]
	if obj.Kind != Object {
		return okOut
	}
	names, keysDet := a.enumKeys(obj.O)
	keysDet = keysDet && obj.Det

	var bf *branchFrame
	if !keysDet {
		bf = a.pushBranch(false)
	}
	finish := func(out outcome) outcome {
		if bf != nil {
			a.popBranch(bf)
			a.markIndeterminate(bf)
			a.releaseBranch(bf)
			a.flushAll("forin-indet")
			if out.kind != oNormal && out.kind != oBreak {
				return a.escapeIndet(out)
			}
			return okOut
		}
		if out.kind == oBreak {
			return okOut
		}
		return out
	}

	for _, name := range names {
		if present, _ := a.has(obj.O, name); !present {
			continue // deleted during iteration
		}
		nv := StringV(name, keysDet)
		// Record a per-iteration fact for the loop itself: the key visited
		// at each occurrence. The specializer uses the run of determinate
		// key facts to unroll for-in loops over determinate property sets
		// (§5.2: determinate sets iterate in determinate order).
		a.record(f, in, nv)
		if in.Global {
			a.setOwn(a.Global, in.TargetGlobal, nv)
		} else {
			a.storeSlot(f.Env, in.Target.Hops, in.Target.Slot, nv)
		}
		out := a.execBlock(f, in.Body)
		switch out.kind {
		case oNormal, oContinue:
		case oBreak:
			return finish(outcome{kind: oBreak})
		default:
			return finish(out)
		}
	}
	return finish(okOut)
}

// enumKeys mirrors interp.enumKeys over instrumented objects, additionally
// reporting whether the key set (and thus iteration order) is determinate.
func (a *Analysis) enumKeys(o *DObj) ([]string, bool) {
	det := true
	var out []string
	seen := map[string]bool{}
	for cur := o; cur != nil; cur = cur.Proto {
		if a.IsOpen(cur) {
			det = false
		}
		if !cur.ProtoDet {
			det = false
		}
		for _, k := range cur.keys {
			p := cur.props[k]
			if p.presence != present {
				det = false
				if p.presence == phantom {
					continue
				}
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			if cur.Class == "Array" && k == "length" {
				continue
			}
			if cur.Class == "Function" && (k == "prototype" || k == "length") {
				continue
			}
			if cur != o && cur.Data == protoMarker {
				continue
			}
			out = append(out, k)
		}
	}
	return out, det
}

// protoMarker tags built-in prototypes, hiding their properties from for-in.
var protoMarker = new(int)

func (a *Analysis) execTry(f *DFrame, in *ir.Try) outcome {
	out := a.execBlock(f, in.Body)
	if out.kind == oCFAbort {
		return out
	}
	if out.kind == oThrow && in.HasCatch {
		pathIndet := out.pathIndet
		var bf *branchFrame
		if pathIndet {
			// The catch only runs in executions that throw here; treat it
			// like a branch under an indeterminate condition.
			bf = a.pushBranch(false)
		}
		if in.GlobalCatch != "" {
			a.setOwn(a.Global, in.GlobalCatch, out.val)
		} else {
			a.storeSlot(f.Env, in.CatchVar.Hops, in.CatchVar.Slot, out.val)
		}
		out = a.execBlock(f, in.Catch)
		if bf != nil {
			a.popBranch(bf)
			a.markIndeterminate(bf)
			a.releaseBranch(bf)
			if out.kind != oNormal {
				out = a.escapeIndet(out)
			}
		}
	}
	if in.Finally != nil {
		fout := a.execBlock(f, in.Finally)
		if fout.kind != oNormal {
			return fout
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Calls: rule ÎNV. The callee's determinacy flag d applies to the result
// value and, when d = ?, to the whole heap (flush): another execution may
// invoke a different function with arbitrary effects.

func (a *Analysis) execCall(f *DFrame, in *ir.Call) outcome {
	fnv := f.Regs[in.Fn]
	if fnv.Kind == Object && fnv.O.Native != nil && fnv.O.Native.IsEval {
		return a.execEval(f, in)
	}
	this := Value{Kind: Undefined, Det: true}
	if in.This != ir.NoReg {
		this = f.Regs[in.This]
	}
	args := make([]Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = f.Regs[r]
	}
	out := a.callValue(fnv, this, args, in.ID)
	if out.kind != oNormal {
		return out
	}
	a.define(f, in, in.Dst, out.val)
	return okOut
}

func (a *Analysis) callValue(fnv Value, this Value, args []Value, site ir.ID) outcome {
	if !fnv.IsCallable() {
		s, _ := a.toString(fnv)
		return a.throwError("TypeError", s+" is not a function", fnv.Det)
	}
	if len(a.frames) >= a.opts.MaxDepth {
		return failed(ErrStack)
	}
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteCoreCall)
	}
	d := fnv.Det
	o := fnv.O

	if o.Native != nil {
		if a.cfDepth > 0 && o.Native.External {
			// §4: abort counterfactual execution at natives with effects
			// outside the journaled instrumented heap.
			return outcome{kind: oCFAbort}
		}
		v, err := o.Native.Fn(a, this, args)
		if err != nil {
			if errors.Is(err, errCFAbort) {
				return outcome{kind: oCFAbort}
			}
			var th *Thrown
			if errors.As(err, &th) {
				return outcome{kind: oThrow, val: th.Val}
			}
			return failed(err)
		}
		if !d {
			a.flushAll("indet-call")
		}
		return outcome{kind: oNormal, val: v.WithDet(d)}
	}

	fn := o.Fn
	env := a.newEnv(o.Env, fn)
	if fn.SelfSlot >= 0 {
		env.Slots[fn.SelfSlot] = fnv
	}
	for i := range fn.Params {
		var av Value
		if i < len(args) {
			av = args[i]
		} else {
			av = Value{Kind: Undefined, Det: true}
		}
		env.Slots[paramSlot(fn, i)] = av
	}
	if fn.ThisSlot >= 0 {
		if this.Kind == Undefined || this.Kind == Null {
			this = ObjV(a.Global, this.Det)
		}
		env.Slots[fn.ThisSlot] = this
	}

	var ctx facts.Context
	ctxUnstable := false
	if len(a.frames) > 0 {
		parent := a.frames[len(a.frames)-1]
		ctx = parent.Ctx
		ctxUnstable = parent.ctxUnstable
		if site >= 0 {
			ctx = append(parent.Ctx.Clone(), facts.ContextEntry{Site: site, Seq: parent.nextCallSeq(site)})
			if !a.seqStable(parent, site) {
				ctxUnstable = true
			}
		}
	}
	nf := &DFrame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: site, Ctx: ctx, ctxUnstable: ctxUnstable}
	a.frames = append(a.frames, nf)
	out := a.execBlock(nf, fn.Body)
	a.frames = a.frames[:len(a.frames)-1]

	var ret outcome
	switch out.kind {
	case oNormal:
		ret = outcome{kind: oNormal, val: UndefD}
	case oReturn:
		ret = outcome{kind: oNormal, val: out.val}
	case oBreak, oContinue:
		return failed(fmt.Errorf("core: loop completion escaped function body"))
	default:
		if !d && out.kind == oThrow {
			a.flushAll("indet-call")
			out.val = out.val.Indet()
			out.pathIndet = true
		}
		return out
	}
	if !d {
		a.flushAll("indet-call")
		ret.val = ret.val.Indet()
	}
	return ret
}

func paramSlot(fn *ir.Function, i int) int {
	name := fn.Params[i]
	for s, n := range fn.SlotNames {
		if n == name {
			return s
		}
	}
	return i
}

func (a *Analysis) execNew(f *DFrame, in *ir.New) outcome {
	fnv := f.Regs[in.Fn]
	if !fnv.IsCallable() {
		s, _ := a.toString(fnv)
		return a.throwError("TypeError", s+" is not a constructor", fnv.Det)
	}
	proto := a.ObjectProto
	protoDet := true
	if pv, ok := a.getOwn(fnv.O, "prototype"); ok {
		protoDet = pv.Det
		if pv.Kind == Object {
			proto = pv.O
		}
	}
	obj := a.NewObj("Object", proto)
	obj.ProtoDet = protoDet && fnv.Det

	args := make([]Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = f.Regs[r]
	}
	out := a.callValue(fnv, ObjV(obj, true), args, in.ID)
	if out.kind != oNormal {
		return out
	}
	res := ObjV(obj, true)
	if out.val.Kind == Object {
		res = out.val
	}
	a.define(f, in, in.Dst, res.WithDet(fnv.Det))
	return okOut
}

// ---------------------------------------------------------------------------
// eval (§4): runtime code is recursively instrumented; an indeterminate
// argument means other executions run different code, so after executing the
// concretely observed code, its writes are marked and the state flushed.

func (a *Analysis) execEval(f *DFrame, in *ir.Call) outcome {
	var argv Value
	if len(in.Args) > 0 {
		argv = f.Regs[in.Args[0]]
	} else {
		argv = UndefD
	}
	if argv.Kind != String {
		a.define(f, in, in.Dst, argv)
		return okOut
	}
	if a.tracer != nil {
		detail := "det"
		if !argv.Det {
			detail = "indet"
		}
		a.tracer.Event(obs.Event{Kind: obs.EvEval, Detail: detail, N1: int64(len(argv.S))})
	}
	fn, err := ir.LowerEval(a.Mod, argv.S, f.Fn)
	if err != nil {
		out := a.throwError("SyntaxError", err.Error(), true)
		if out.kind == oThrow {
			out.val = out.val.WithDet(argv.Det)
		}
		return out
	}

	var bf *branchFrame
	if !argv.Det {
		bf = a.pushBranch(false)
	}

	env := a.newEnv(f.Env, fn)
	ctx := append(f.Ctx.Clone(), facts.ContextEntry{Site: in.ID, Seq: f.nextCallSeq(in.ID)})
	ctxUnstable := f.ctxUnstable || !a.seqStable(f, in.ID)
	nf := &DFrame{Fn: fn, Env: env, Regs: make([]Value, fn.NumRegs), CallSite: in.ID, Ctx: ctx, ctxUnstable: ctxUnstable}
	if len(a.frames) >= a.opts.MaxDepth {
		if bf != nil {
			a.popBranch(bf)
			a.mergeUp(bf)
			a.releaseBranch(bf)
		}
		return failed(ErrStack)
	}
	a.frames = append(a.frames, nf)
	bout := a.execBlock(nf, fn.Body)
	a.frames = a.frames[:len(a.frames)-1]

	if bf != nil {
		a.popBranch(bf)
		a.markIndeterminate(bf)
		a.releaseBranch(bf)
		a.flushAll("eval-indet")
	}

	switch bout.kind {
	case oReturn, oNormal:
		v := bout.val
		if bout.kind == oNormal {
			v = UndefD
		}
		a.define(f, in, in.Dst, v.WithDet(argv.Det))
		return okOut
	case oThrow:
		if !argv.Det {
			bout.val = bout.val.Indet()
		}
		return bout
	default:
		return bout
	}
}
