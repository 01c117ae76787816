package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"determinacy/internal/facts"
	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
	"determinacy/internal/vm"
)

// Errors reported by the analysis.
var (
	// ErrBudget means the instrumented execution exceeded its step budget.
	ErrBudget = errors.New("core: step budget exhausted")
	// ErrStack means the call stack exceeded its limit.
	ErrStack = errors.New("core: call stack overflow")
	// ErrFlushLimit means the analysis stopped after too many heap flushes
	// (the paper stops after 1000, "since at this point it is unlikely to
	// detect new determinacy facts"). Facts gathered so far remain sound.
	ErrFlushLimit = errors.New("core: heap flush limit reached")
)

// Thrown wraps an uncaught instrumented exception.
type Thrown struct {
	Val Value
}

func (t *Thrown) Error() string { return "js exception (instrumented)" }

// Options configures the analysis.
type Options struct {
	// MaxSteps bounds executed instructions (0 = default).
	MaxSteps int
	// MaxDepth bounds call-stack depth (0 = default 1000).
	MaxDepth int
	// Out receives console output (suppressed during counterfactual
	// execution); nil discards.
	Out io.Writer
	// Seed drives Math.random; Now backs Date.now; Inputs backs __input.
	// All three are indeterminate sources regardless of their concrete
	// values.
	Seed   uint64
	Now    float64
	Inputs map[string]interp.Value

	// MaxCounterfactualDepth is the paper's cut-off k for nested
	// counterfactual executions (rule CNTRABORT). 0 means the default of 4.
	MaxCounterfactualDepth int
	// DisableCounterfactual ablates counterfactual execution: an
	// indeterminate-false branch is handled by the conservative
	// CNTRABORT rule (heap flush + static write-set marking) instead.
	DisableCounterfactual bool
	// ImmediateTaint ablates post-branch marking: values written under an
	// indeterminate condition are marked indeterminate at write time, as a
	// classical dynamic information-flow analysis would. This loses facts
	// like the paper's ⟦r.g⟧ 18→5→10 = 42.
	ImmediateTaint bool
	// MuJSLocals reproduces the paper's µJS-faithful treatment of locals:
	// indeterminate calls flush only the heap, not environments. Full
	// JavaScript closures make this unsound (see DESIGN.md), so the default
	// performs an environment flush as well.
	MuJSLocals bool
	// MaxFlushes stops the analysis after this many heap flushes (0 =
	// unlimited). The paper uses 1000.
	MaxFlushes int
	// Tracer receives the analysis' event stream (flushes, branch frames,
	// counterfactuals, taint marking, fact recording, eval encounters).
	// nil disables tracing; every emission site is guarded so the disabled
	// path costs one branch and no allocations.
	Tracer obs.Tracer
	// Ctx, when non-nil, is polled every interruptEvery steps; once it is
	// done the run unwinds through the normal abort path (branch frames pop
	// with their journal undo and indeterminacy marking) and Run returns
	// guard.ErrDeadline for a deadline, else the wrapped cancellation
	// cause. nil disables the poll's select.
	Ctx context.Context

	// Deprecated: ignored; there is one engine.
	Engine vm.Engine
}

// MaxTrackedCFDepth is the size of Stats.CFDepthHist; deeper nestings fold
// into the last bucket.
const MaxTrackedCFDepth = 8

// Stats summarizes one instrumented run.
type Stats struct {
	Steps        int
	HeapFlushes  int
	EnvFlushes   int
	FlushReasons map[string]int
	Counterfacts int // counterfactual branch executions
	CFAborts     int // counterfactual aborts (depth, native, exception)
	// CFDepthHist counts counterfactual executions by nesting depth
	// (index 1 = outermost; nestings ≥ MaxTrackedCFDepth-1 fold into the
	// last bucket).
	CFDepthHist [MaxTrackedCFDepth]int
}

// NewStats returns a Stats with all maps initialized. It is the one place
// the FlushReasons map is created, so merging and direct construction never
// hit a nil map.
func NewStats() Stats {
	return Stats{FlushReasons: map[string]int{}}
}

// Merge folds another run's statistics into s, tolerating nil maps on
// either side (a Stats constructed directly rather than via NewStats).
func (s *Stats) Merge(o Stats) {
	s.Steps += o.Steps
	s.HeapFlushes += o.HeapFlushes
	s.EnvFlushes += o.EnvFlushes
	s.Counterfacts += o.Counterfacts
	s.CFAborts += o.CFAborts
	for i, n := range o.CFDepthHist {
		s.CFDepthHist[i] += n
	}
	if len(o.FlushReasons) == 0 {
		return
	}
	if s.FlushReasons == nil {
		s.FlushReasons = make(map[string]int, len(o.FlushReasons))
	}
	for r, n := range o.FlushReasons {
		s.FlushReasons[r] += n
	}
}

// Export publishes the run statistics into a metrics registry using the
// pipeline's canonical metric names.
func (s Stats) Export(m *obs.Metrics) {
	m.Counter("analysis_steps_total").Add(int64(s.Steps))
	m.Counter("analysis_heap_flushes_total").Add(int64(s.HeapFlushes))
	m.Counter("analysis_env_flushes_total").Add(int64(s.EnvFlushes))
	m.Counter("analysis_counterfactuals_total").Add(int64(s.Counterfacts))
	m.Counter("analysis_cf_aborts_total").Add(int64(s.CFAborts))
	for r, n := range s.FlushReasons {
		m.Counter(`analysis_heap_flushes_total{reason="` + r + `"}`).Add(int64(n))
	}
	h := m.Histogram("analysis_cf_depth", 1, 2, 3, 4, 5, 6, 7)
	for depth, n := range s.CFDepthHist {
		for i := 0; i < n; i++ {
			h.Observe(float64(depth))
		}
	}
}

// Analysis is the instrumented interpreter. Create with New, execute with
// Run, and read facts from Facts.
type Analysis struct {
	Mod    *ir.Module // the run's layer over New's module (see ir.Module.Layer)
	Global *DObj
	Facts  *facts.Store

	ObjectProto   *DObj
	FunctionProto *DObj
	ArrayProto    *DObj
	StringProto   *DObj
	NumberProto   *DObj
	BooleanProto  *DObj
	ErrorProto    *DObj

	// OnFlush, when set, observes every heap flush with its reason.
	OnFlush func(reason string)

	opts      Options
	tracer    obs.Tracer
	stats     Stats
	heapEpoch uint64
	envEpoch  uint64
	nalloc    int
	frames    []*DFrame
	branches  []*branchFrame
	cfDepth   int
	rng       interp.Rand
	stopped   error
	// curIn is the instruction currently executing, tracked so the panic
	// boundary can report where a crash happened.
	curIn ir.Instr
	// bfPool recycles dead branch frames and their journal backing until
	// the run ends.
	bfPool []*branchFrame
	// operands is the reusable buffer that natives' shared kernels read
	// their converted arguments from (takeOperands).
	operands []interp.Value
}

// DFrame is one instrumented activation record.
type DFrame struct {
	Fn       *ir.Function
	Env      *DEnv
	Regs     []Value
	CallSite ir.ID
	Ctx      facts.Context
	siteSeq  map[ir.ID]int
	instrSeq map[ir.ID]int
	// taintedSeq marks instructions whose occurrence numbering in this
	// activation is no longer stable across executions (an arrival happened
	// under an indeterminate branch inside a loop). Facts at such points
	// would be keyed by indices other executions may not share, so they are
	// recorded indeterminate.
	taintedSeq map[ir.ID]bool
	// allSeqTainted poisons the whole activation's occurrence numbering; it
	// is set when a counterfactual was aborted, leaving an unexecuted block
	// whose arrivals other executions may perform.
	allSeqTainted bool
	// ctxUnstable marks frames whose calling context contains an
	// occurrence-unstable entry; all facts recorded under it are
	// indeterminate.
	ctxUnstable bool
}

// nextInstrSeq returns and advances id's occurrence index in f.
func (f *DFrame) nextInstrSeq(id ir.ID) int {
	if f.instrSeq == nil {
		f.instrSeq = make(map[ir.ID]int)
	}
	seq := f.instrSeq[id]
	f.instrSeq[id] = seq + 1
	return seq
}

// seqTaintedAt reports whether id's occurrence numbering is tainted in f.
func (f *DFrame) seqTaintedAt(id ir.ID) bool {
	return f.taintedSeq[id]
}

// taintSeq marks id occurrence-unstable in f.
func (f *DFrame) taintSeq(id ir.ID) {
	if f.taintedSeq == nil {
		f.taintedSeq = make(map[ir.ID]bool)
	}
	f.taintedSeq[id] = true
}

// New creates an analysis for mod. Pass a fact store to collect facts, or
// nil to run for statistics only.
func New(mod *ir.Module, store *facts.Store, opts Options) *Analysis {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 20_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 1000
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	if opts.MaxCounterfactualDepth == 0 {
		opts.MaxCounterfactualDepth = 4
	}
	a := &Analysis{
		Mod:    mod.Layer(),
		Facts:  store,
		opts:   opts,
		tracer: opts.Tracer,
		rng:    interp.NewRand(opts.Seed),
		stats:  NewStats(),
	}
	a.setupRuntime()
	return a
}

// Stats returns run statistics.
func (a *Analysis) Stats() Stats { return a.stats }

// Options returns the analysis configuration.
func (a *Analysis) Options() Options { return a.opts }

// ---------------------------------------------------------------------------
// Allocation

// NewObj allocates an instrumented object closed under the current epoch.
func (a *Analysis) NewObj(class string, proto *DObj) *DObj {
	a.nalloc++
	return &DObj{Class: class, Proto: proto, ProtoDet: true, createdEpoch: a.heapEpoch, Alloc: a.nalloc}
}

// NewPlainObj allocates an object inheriting from Object.prototype.
func (a *Analysis) NewPlainObj() *DObj { return a.NewObj("Object", a.ObjectProto) }

// NewArrayObj allocates an array with the given annotated elements.
func (a *Analysis) NewArrayObj(elems []Value) *DObj {
	o := a.NewObj("Array", a.ArrayProto)
	a.setRawProp(o, "length", NumberV(float64(len(elems)), true))
	for i, e := range elems {
		a.setRawProp(o, fmt.Sprint(i), e)
	}
	return o
}

// NewNativeObj wraps a native implementation as a callable object.
func (a *Analysis) NewNativeObj(name string, fn func(*Analysis, Value, []Value) (Value, error)) *DObj {
	o := a.NewObj("Function", a.FunctionProto)
	o.Native = &DNative{Name: name, Fn: fn}
	return o
}

// NewClosureObj creates a function object for fn closing over env.
func (a *Analysis) NewClosureObj(fn *ir.Function, env *DEnv) *DObj {
	c := a.NewObj("Function", a.FunctionProto)
	c.Fn = fn
	c.Env = env
	proto := a.NewPlainObj()
	a.setOwn(proto, "constructor", ObjV(c, true))
	a.setOwn(c, "prototype", ObjV(proto, true))
	a.setOwn(c, "length", NumberV(float64(len(fn.Params)), true))
	return c
}

// NewErrorObj creates an instrumented error object; det annotates both name
// and message.
func (a *Analysis) NewErrorObj(name, msg string, det bool) *DObj {
	e := a.NewObj("Error", a.ErrorProto)
	a.setOwn(e, "name", StringV(name, det))
	a.setOwn(e, "message", StringV(msg, det))
	return e
}

// SetGlobal defines a global binding (for embedders like the DOM bridge).
func (a *Analysis) SetGlobal(name string, v Value) { a.setOwn(a.Global, name, v) }

// SetProp writes a property through the journaled write path.
func (a *Analysis) SetProp(o *DObj, name string, v Value) { a.setOwn(o, name, v) }

// GetProp reads an own property of o.
func (a *Analysis) GetProp(o *DObj, name string) (Value, bool) { return a.getOwn(o, name) }

// ToNumberPub exposes JavaScript ToNumber for embedders, with the
// conversion's determinacy.
func (a *Analysis) ToNumberPub(v Value) (float64, bool) { return a.toNumber(v) }

// ToStringPub exposes JavaScript ToString for embedders, with the
// conversion's determinacy.
func (a *Analysis) ToStringPub(v Value) (string, bool) { return a.toString(v) }

// DefNativeOn installs a native function as a property of o. When external,
// the native aborts counterfactual execution (it has effects outside the
// instrumented, journal-protected heap).
func (a *Analysis) DefNativeOn(o *DObj, name string, fn func(*Analysis, Value, []Value) (Value, error), external bool) {
	nat := a.NewNativeObj(name, fn)
	nat.Native.External = external
	a.setOwn(o, name, ObjV(nat, true))
}

// MarkObjectIndeterminate forces every property of o indeterminate and the
// record open, used by embedders importing host data with an indeterminacy
// policy (e.g. DOM node lists).
func (a *Analysis) MarkObjectIndeterminate(o *DObj) {
	a.openRecord(o, false)
}

// LookupGlobal reads a global binding (for embedders and tests), returning
// the value, whether it exists, and whether the lookup path is determinate.
func (a *Analysis) LookupGlobal(name string) (Value, bool, bool) {
	v, found, det := a.lookup(a.Global, name)
	return v, found, det
}

// DisplayValue renders a value using JavaScript ToString semantics.
func (a *Analysis) DisplayValue(v Value) string {
	s, _ := a.toString(v)
	return s
}

// Random steps the deterministic PRNG (concrete value; always annotated
// indeterminate by the Math.random model).
func (a *Analysis) Random() float64 { return a.rng.Float64() }

// ---------------------------------------------------------------------------
// Flushing

// FlushHeap performs a heap flush (§4): a single epoch increment marks every
// property of every object indeterminate and every record open.
func (a *Analysis) FlushHeap(reason string) {
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteCoreFlush)
	}
	a.heapEpoch++
	a.stats.HeapFlushes++
	if a.stats.FlushReasons == nil {
		a.stats.FlushReasons = map[string]int{}
	}
	a.stats.FlushReasons[reason]++
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.EvHeapFlush, Phase: reason,
			N1: int64(a.heapEpoch), N2: int64(a.stats.HeapFlushes)})
	}
	if a.OnFlush != nil {
		a.OnFlush(reason)
	}
	if a.opts.MaxFlushes > 0 && a.stats.HeapFlushes > a.opts.MaxFlushes && a.stopped == nil {
		a.stopped = ErrFlushLimit
	}
}

// flushEnv marks every local slot of every live environment indeterminate.
// See Options.MuJSLocals for when this runs.
func (a *Analysis) flushEnv() {
	a.envEpoch++
	a.stats.EnvFlushes++
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.EvEnvFlush, N1: int64(a.envEpoch)})
	}
}

// flushAll is the conservative merge used for indeterminate calls and
// escapes: heap plus (unless in µJS-locals mode) environments.
func (a *Analysis) flushAll(reason string) {
	a.FlushHeap(reason)
	if !a.opts.MuJSLocals {
		a.flushEnv()
	}
}

// SealPartial conservatively flushes heap and environments after an
// interrupted run, per the §4.3 flush semantics: any state the aborted
// epoch may have left half-written is joined to indeterminate, so the
// facts collected before the stop stay sound for clients that keep using
// this analysis' state (e.g. embedders inspecting globals). Per-occurrence
// facts are untouched — stopping early only means fewer of them, exactly
// like the paper's 1000-flush cut-off — but the occurrence-cap bucket
// (facts.Store.MaxSeq) aggregates every occurrence past the cap, and a
// truncated run saw only a prefix of those, so that bucket is joined to
// indeterminate.
func (a *Analysis) SealPartial() {
	stopped := a.stopped
	a.stopped = nil // the seal flush must run even past the flush cap
	a.flushAll("partial-seal")
	if a.Facts != nil {
		a.Facts.InvalidateSaturated()
	}
	a.stopped = stopped
}

// interruptEvery is the step interval between cooperative interrupt polls
// (context cancellation, wall-clock deadline, armed fault plans); a power
// of two so the hot-loop check is a mask.
const interruptEvery = 2048

// checkpoint polls the cooperative stop conditions. Injected panics
// unwind to the Run boundary; interrupts make the stop sticky via
// a.stopped, so every in-flight branch frame unwinds through the normal
// oFail path and journal undo / indeterminacy marking stay exact.
func (a *Analysis) checkpoint() {
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteCoreStep)
	}
	if a.stopped == nil {
		if err := guard.CheckInterrupt(a.opts.Ctx); err != nil {
			a.stopped = err
		}
	}
}

// CurrentPoint reports the instruction the interpreter is currently
// executing, for panic diagnostics: its ID and "line:col" source
// position, or (-1, "") outside execution.
func (a *Analysis) CurrentPoint() (int, string) {
	if a.curIn == nil {
		return -1, ""
	}
	p := a.curIn.IPos()
	return int(a.curIn.IID()), fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// ---------------------------------------------------------------------------
// Environment access with epochs

func (a *Analysis) loadSlot(env *DEnv, hops, slot int) Value {
	e := env.at(hops)
	v := e.Slots[slot]
	v.Det = v.Det && e.Epochs[slot] >= a.envEpoch
	return v
}

func (a *Analysis) storeSlot(env *DEnv, hops, slot int, v Value) {
	e := env.at(hops)
	a.journalVar(e, slot)
	if a.opts.ImmediateTaint && a.inIndetBranch() {
		v.Det = false
	}
	e.Slots[slot] = v
	e.Epochs[slot] = a.envEpoch
}

// newEnv creates an environment frame with all slots undefined-determinate.
func (a *Analysis) newEnv(parent *DEnv, fn *ir.Function) *DEnv {
	e := &DEnv{Parent: parent, Fn: fn, Slots: make([]Value, fn.NumSlots), Epochs: make([]uint64, fn.NumSlots)}
	for i := range e.Slots {
		e.Slots[i] = UndefD
		e.Epochs[i] = a.envEpoch
	}
	return e
}

// ---------------------------------------------------------------------------
// Branch frames and the write journal

type writeKind uint8

const (
	wVar writeKind = iota
	wReg
	wProp
	// wOpen records a transition of an object to forced-open (rule ŜTO with
	// an indeterminate property name), so counterfactual undo can close it
	// again.
	wOpen
)

type writeRec struct {
	kind writeKind
	// var writes
	env  *DEnv
	slot int
	// reg writes
	regs []Value
	reg  ir.Reg
	// prop writes
	obj  *DObj
	name string

	oldVal   Value
	oldEpoch uint64
	oldProp  dprop
	existed  bool
	// oldKeyIdx is the property's position in the object's key order at
	// journal time (-1 when absent), so undoing a delete reinserts the key
	// where it was: key order is observable through for-in.
	oldKeyIdx     int
	oldForcedOpen bool
	kindProp      bool
}

// locKey identifies a journaled heap location for deduplication. It is a
// plain comparable struct — not an interface — so map operations on it
// never box: cell carries slot/register identity (their backing arrays are
// allocated once and never reallocated, so element pointers are stable),
// obj+name a property, and obj+open an open-transition.
type locKey struct {
	cell *Value
	obj  *DObj
	name string
	open bool
}

// loc identifies the location a record writes.
func (w *writeRec) loc() locKey {
	switch w.kind {
	case wVar:
		return locKey{cell: &w.env.Slots[w.slot]}
	case wReg:
		return locKey{cell: &w.regs[w.reg]}
	case wProp:
		return locKey{obj: w.obj, name: w.name}
	default:
		return locKey{obj: w.obj, open: true}
	}
}

// branchFrame tracks writes performed while executing a branch guarded by an
// indeterminate condition (or counterfactually).
type branchFrame struct {
	journal []writeRec
	// seen indexes journaled locations once this frame has absorbed a
	// child journal (see mergeUp); nil until then. addJournal keeps it
	// fresh so later merges still deduplicate correctly.
	seen           map[locKey]bool
	counterfactual bool
	// isLoop marks the frame a non-reentrant loop opens under an
	// indeterminate condition (rules ÎF1/CNTR applied to the while
	// desugaring). Occurrence indices of instructions inside such frames
	// remain stable — the k-th arrival at a loop-body point is iteration k
	// in every execution — so fact recording does not taint them until the
	// loop ends (see seqStable and tainStamp below). Non-loop frames
	// destabilize reentrant occurrence counting immediately.
	isLoop bool
	// recorded collects the fact observations made while this frame was
	// innermost, so loop frames can taint their occurrence counters once
	// the loop is over.
	recorded map[*DFrame]map[ir.ID]bool
}

func (a *Analysis) inIndetBranch() bool { return len(a.branches) > 0 }

// hasNonLoopBranch reports whether any active indeterminate frame is a
// non-loop frame (if-branch, counterfactual of a branch, indeterminate
// for-in or eval), which makes reentrant occurrence counting unstable.
func (a *Analysis) hasNonLoopBranch() bool {
	for _, bf := range a.branches {
		if !bf.isLoop {
			return true
		}
	}
	return false
}

func (a *Analysis) pushBranch(counterfactual bool) *branchFrame {
	return a.pushBranchKind(counterfactual, false)
}

func (a *Analysis) pushLoopBranch(counterfactual bool) *branchFrame {
	return a.pushBranchKind(counterfactual, true)
}

func (a *Analysis) pushBranchKind(counterfactual, isLoop bool) *branchFrame {
	var bf *branchFrame
	if n := len(a.bfPool); n > 0 {
		bf = a.bfPool[n-1]
		a.bfPool = a.bfPool[:n-1]
		bf.counterfactual, bf.isLoop = counterfactual, isLoop
	} else {
		bf = &branchFrame{counterfactual: counterfactual, isLoop: isLoop}
	}
	a.branches = append(a.branches, bf)
	if counterfactual {
		a.cfDepth++
		a.stats.Counterfacts++
		d := a.cfDepth
		if d >= MaxTrackedCFDepth {
			d = MaxTrackedCFDepth - 1
		}
		a.stats.CFDepthHist[d]++
	}
	if a.tracer != nil {
		a.tracer.Event(branchEvent(bf, true, int64(len(a.branches)), int64(a.cfDepth)))
	}
	return bf
}

// noteRecorded registers a fact observation with the innermost frame.
func (a *Analysis) noteRecorded(f *DFrame, id ir.ID) {
	if len(a.branches) == 0 {
		return
	}
	bf := a.branches[len(a.branches)-1]
	if bf.recorded == nil {
		bf.recorded = map[*DFrame]map[ir.ID]bool{}
	}
	m := bf.recorded[f]
	if m == nil {
		m = map[ir.ID]bool{}
		bf.recorded[f] = m
	}
	m[id] = true
}

// applyLoopTaints marks every observation made under a popped loop frame as
// occurrence-unstable for the rest of its activation: arrivals after the
// loop (e.g. via an enclosing loop) no longer align across executions.
func (a *Analysis) applyLoopTaints(bf *branchFrame) {
	for df, ids := range bf.recorded {
		for id := range ids {
			df.taintSeq(id)
		}
	}
	bf.recorded = nil
}

// releaseBranch recycles a popped frame whose journal has been fully
// consumed (marked, undone, or merged up — merges copy records by value, so
// reusing the backing array is safe). Only the audited frame-death sites in
// execIf, counterfactual, cfLoopTail and execWhile call it; anywhere else
// a frame may still be referenced.
func (a *Analysis) releaseBranch(bf *branchFrame) {
	bf.journal = bf.journal[:0]
	clear(bf.seen)
	bf.recorded = nil
	a.bfPool = append(a.bfPool, bf)
}

// popBranch removes the frame; callers then invoke markIndeterminate or
// undoAndMark on it.
func (a *Analysis) popBranch(bf *branchFrame) {
	if a.tracer != nil {
		a.tracer.Event(branchEvent(bf, false, int64(len(a.branches)), int64(a.cfDepth)))
	}
	a.branches = a.branches[:len(a.branches)-1]
	if bf.counterfactual {
		a.cfDepth--
	}
}

// branchEvent builds the enter/exit event for a branch frame. Enter and
// exit report the same depth for the same frame so B/E pairs in the Chrome
// exporter match up.
func branchEvent(bf *branchFrame, enter bool, branchDepth, cfDepth int64) obs.Event {
	e := obs.Event{N1: branchDepth}
	switch {
	case bf.counterfactual && enter:
		e.Kind, e.N1 = obs.EvCFEnter, cfDepth
	case bf.counterfactual:
		e.Kind, e.N1 = obs.EvCFExit, cfDepth
	case enter:
		e.Kind = obs.EvBranchEnter
	default:
		e.Kind = obs.EvBranchExit
	}
	if bf.isLoop {
		e.Detail = "loop"
	}
	return e
}

// addJournal appends a write record, keeping the location index fresh once
// a merge has materialized it.
func (bf *branchFrame) addJournal(w writeRec) {
	bf.journal = append(bf.journal, w)
	if bf.seen != nil {
		bf.seen[w.loc()] = true
	}
}

func (a *Analysis) journalVar(env *DEnv, slot int) {
	if len(a.branches) == 0 {
		return
	}
	bf := a.branches[len(a.branches)-1]
	bf.addJournal(writeRec{
		kind: wVar, env: env, slot: slot,
		oldVal: env.Slots[slot], oldEpoch: env.Epochs[slot],
	})
}

func (a *Analysis) journalReg(regs []Value, reg ir.Reg) {
	if len(a.branches) == 0 {
		return
	}
	bf := a.branches[len(a.branches)-1]
	bf.addJournal(writeRec{
		kind: wReg, regs: regs, reg: reg, oldVal: regs[reg],
	})
}

func (a *Analysis) journalProp(o *DObj, name string) {
	if len(a.branches) == 0 {
		return
	}
	bf := a.branches[len(a.branches)-1]
	p, existed := o.props[name]
	keyIdx := -1
	if existed {
		for i, k := range o.keys {
			if k == name {
				keyIdx = i
				break
			}
		}
	}
	bf.addJournal(writeRec{
		kind: wProp, obj: o, name: name, oldProp: p, existed: existed,
		oldKeyIdx:     keyIdx,
		oldForcedOpen: o.forcedOpen,
	})
}

func (a *Analysis) journalOpen(o *DObj) {
	if len(a.branches) == 0 {
		return
	}
	bf := a.branches[len(a.branches)-1]
	bf.addJournal(writeRec{kind: wOpen, obj: o, oldForcedOpen: o.forcedOpen})
}

// openRecord implements rule ŜTO with an indeterminate property name d'=?:
// the record becomes open and every property indeterminate, since any
// property may have been written (or a new one added) in other executions.
// For deletes through indeterminate names, markAbsent additionally flags
// every property's existence as uncertain.
func (a *Analysis) openRecord(o *DObj, markAbsent bool) {
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.EvTaint, Phase: "open-record", N1: int64(len(o.keys))})
	}
	a.journalOpen(o)
	o.forcedOpen = true
	for _, k := range o.OwnKeys() {
		a.journalProp(o, k)
		p := o.props[k]
		p.val.Det = false
		if markAbsent && p.presence == present {
			p.presence = maybeAbsent
		}
		o.props[k] = p
	}
}

// OwnKeys returns a copy of the own property key order of o.
func (o *DObj) OwnKeys() []string {
	out := make([]string, len(o.keys))
	copy(out, o.keys)
	return out
}

// OwnProp returns the concrete value of an own property. Phantom cells are
// concretely absent and report false. The differential harness uses this to
// snapshot final object state without touching instrumentation.
func (o *DObj) OwnProp(name string) (Value, bool) {
	p, ok := o.props[name]
	if !ok || p.presence == phantom {
		return Value{}, false
	}
	return p.val, true
}

// hasOwnConcrete reports the concrete own-property answer plus its
// determinacy (phantoms are concretely absent, maybeAbsent concretely
// present; both indeterminate).
func (a *Analysis) hasOwnConcrete(o *DObj, name string) (bool, bool) {
	p, ok := o.props[name]
	if !ok {
		return false, !a.IsOpen(o)
	}
	switch p.presence {
	case phantom:
		return false, false
	case maybeAbsent:
		return true, false
	}
	// On an open record even a present cell may have been deleted by the
	// unknown effects that opened the record.
	return true, !a.IsOpen(o)
}

// markIndeterminate implements the post-branch marking of rule ÎF1:
// ρ̂'[vd(t̂) := ρ̂'?] and ĥ'[pd(t̂) := ĥ'?]. Values keep their current
// (really computed) state but drop to indeterminate. Journal entries are
// then merged into the enclosing branch frame, since nested branches
// contribute to the outer branch's write domains.
func (a *Analysis) markIndeterminate(bf *branchFrame) {
	if a.tracer != nil && len(bf.journal) > 0 {
		a.tracer.Event(obs.Event{Kind: obs.EvTaint, Phase: "post-branch-mark", N1: int64(len(bf.journal))})
	}
	for i := range bf.journal {
		a.markRecord(&bf.journal[i])
	}
	a.mergeUp(bf)
}

// markRecord applies rule ÎF1's post-branch marking to the location one
// journal record names, judging existence by the record's pre-write state.
// Marking never removes a property, and marking one that exists only joins
// into it (value to indeterminate, present to maybe-absent; a phantom
// stays a phantom), so marks commute and repeating one changes nothing.
func (a *Analysis) markRecord(w *writeRec) {
	switch w.kind {
	case wVar:
		w.env.Slots[w.slot] = w.env.Slots[w.slot].Indet()
	case wReg:
		w.regs[w.reg] = w.regs[w.reg].Indet()
	case wProp:
		if p, ok := w.obj.props[w.name]; ok {
			p.val = p.val.Indet()
			if p.presence == present && (!w.existed || w.oldProp.presence != present) {
				// The property did not determinately exist before the
				// branch, so executions that skip the branch may lack it
				// entirely: existence joins to indeterminate along with
				// the value. (Found by detfuzz: a for-in over the object
				// otherwise enumerates the key as a determinate fact that
				// executions skipping the branch violate.)
				p.presence = maybeAbsent
			}
			w.obj.props[w.name] = p
		} else if w.existed {
			// Deleted during the branch: other executions may still have
			// it, so it reads as undefined? from here on.
			a.phantomProp(w.obj, w.name)
		}
	case wOpen:
		// The record really became open; nothing to mark.
	}
}

// undoAndMark implements rule CNTR's post-processing: every write performed
// by the counterfactual branch is reverted to its pre-branch state
// (ρ̂'[vd := ρ̂?], ĥ'[pd := ĥ?]) and then marked indeterminate, since other
// executions may perform it.
func (a *Analysis) undoAndMark(bf *branchFrame) {
	if a.tracer != nil && len(bf.journal) > 0 {
		a.tracer.Event(obs.Event{Kind: obs.EvTaint, Phase: "cf-undo-mark", N1: int64(len(bf.journal))})
	}
	// Capture each journaled property's end-of-branch presence before the
	// undo: a property the counterfactual deleted comes back when the
	// journal is reverted, but executions that really take the branch lose
	// it, so its existence must join to indeterminate.
	type propKey struct {
		obj  *DObj
		name string
	}
	var cfAbsent map[propKey]bool
	for _, w := range bf.journal {
		if w.kind != wProp {
			continue
		}
		if cfAbsent == nil {
			cfAbsent = make(map[propKey]bool)
		}
		p, ok := w.obj.props[w.name]
		cfAbsent[propKey{w.obj, w.name}] = !ok || p.presence == phantom
	}
	a.undoJournal(bf)
	for _, w := range bf.journal {
		switch w.kind {
		case wVar:
			w.env.Slots[w.slot] = w.env.Slots[w.slot].Indet()
		case wReg:
			w.regs[w.reg] = w.regs[w.reg].Indet()
		case wProp:
			if p, ok := w.obj.props[w.name]; ok {
				p.val = p.val.Indet()
				if p.presence == present && cfAbsent[propKey{w.obj, w.name}] {
					p.presence = maybeAbsent
				}
				w.obj.props[w.name] = p
			} else {
				a.phantomProp(w.obj, w.name)
			}
		case wOpen:
			// An opening performed only counterfactually still means other
			// executions may add or remove arbitrary properties.
			w.obj.forcedOpen = true
		}
	}
	a.mergeUp(bf)
}

// undoJournal reverts all journaled writes in reverse order.
func (a *Analysis) undoJournal(bf *branchFrame) {
	for i := len(bf.journal) - 1; i >= 0; i-- {
		w := bf.journal[i]
		switch w.kind {
		case wVar:
			w.env.Slots[w.slot] = w.oldVal
			w.env.Epochs[w.slot] = w.oldEpoch
		case wReg:
			w.regs[w.reg] = w.oldVal
		case wProp:
			if w.existed {
				w.obj.props[w.name] = w.oldProp
				w.obj.restoreKey(w.name, w.oldKeyIdx)
			} else {
				a.rawDelete(w.obj, w.name)
			}
		case wOpen:
			w.obj.forcedOpen = w.oldForcedOpen
		}
	}
}

// undoOnly reverts writes without marking, used when a counterfactual is
// aborted and followed by a conservative flush (the flush subsumes the
// marking for heap locations; environment marking is handled by the
// caller's env flush).
func (a *Analysis) undoOnly(bf *branchFrame) {
	a.undoJournal(bf)
	a.mergeUp(bf)
}

// mergeUp folds a popped frame's journal into the enclosing frame, since
// nested branches contribute to the outer branch's write domains. Only the
// first record per location survives the merge: it carries the oldest
// pre-write state, which is all that undo and marking need (marking acts on
// the location's current value, undo restores the oldest). Wholesale
// concatenation made the journal grow with the number of writes rather than
// the number of locations (a budget-aborted indeterminate while loop hung
// the analysis long after ErrBudget fired; found by detfuzz). An
// indeterminate loop has one frame however many iterations run in it (see
// execWhile), so its journal merges up once, at the loop exit.
func (a *Analysis) mergeUp(bf *branchFrame) {
	if len(a.branches) == 0 {
		return
	}
	parent := a.branches[len(a.branches)-1]
	if parent.seen == nil {
		parent.seen = make(map[locKey]bool, len(parent.journal)+len(bf.journal))
		for i := range parent.journal {
			parent.seen[parent.journal[i].loc()] = true
		}
	}
	for i := range bf.journal {
		k := bf.journal[i].loc()
		if parent.seen[k] {
			continue
		}
		parent.seen[k] = true
		parent.journal = append(parent.journal, bf.journal[i])
	}
}

// restoreKey puts name back at its pre-journal position in the key order
// when a write performed inside a branch is undone. Without it a restored
// deleted property would be invisible to for-in — or sit at the wrong
// position after a delete-then-readd, whose intermediate records a journal
// merge may have dropped — and concrete key order (which for-in facts
// observe) would diverge from an uninstrumented run.
func (o *DObj) restoreKey(name string, idx int) {
	for i, k := range o.keys {
		if k == name {
			if i == idx {
				return
			}
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
	if idx < 0 || idx > len(o.keys) {
		idx = len(o.keys)
	}
	o.keys = append(o.keys, "")
	copy(o.keys[idx+1:], o.keys[idx:])
	o.keys[idx] = name
}

// phantomProp installs an existence-uncertain property reading undefined?.
func (a *Analysis) phantomProp(o *DObj, name string) {
	if o.props == nil {
		o.props = make(map[string]dprop)
	}
	if _, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
	}
	o.props[name] = dprop{val: Value{Kind: Undefined}, epoch: a.heapEpoch, presence: phantom}
}

func (a *Analysis) rawDelete(o *DObj, name string) {
	if _, ok := o.props[name]; !ok {
		return
	}
	delete(o.props, name)
	o.removeKey(name)
}

// removeKey drops name from the key order.
func (o *DObj) removeKey(name string) {
	for i, k := range o.keys {
		if k == name {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			return
		}
	}
}

// markStaticWrites marks the statically determined write-set of a block
// indeterminate (rule CNTRABORT's ρ̂[vd(s) := ρ̂?]).
func (a *Analysis) markStaticWrites(f *DFrame, b *ir.Block) {
	writes := ir.WritesOf(b)
	if a.tracer != nil && len(writes) > 0 {
		a.tracer.Event(obs.Event{Kind: obs.EvTaint, Phase: "static-writes", N1: int64(len(writes))})
	}
	for _, v := range writes {
		e := f.Env.at(v.Hops)
		a.journalVar(e, v.Slot)
		e.Slots[v.Slot] = e.Slots[v.Slot].Indet()
	}
}

// ---------------------------------------------------------------------------
// Fact recording

// record stores a fact observation for a register-defining instruction.
// The fact is determinate only if the computed value is determinate AND the
// observation's position — its occurrence index and every context entry —
// is stable across executions (otherwise another execution could reach the
// same key with a different value; see DFrame.taintedSeq).
func (a *Analysis) record(f *DFrame, in ir.Instr, v Value) {
	if a.Facts == nil {
		return
	}
	if a.opts.ImmediateTaint && a.inIndetBranch() {
		v.Det = false
	}
	seq := f.nextInstrSeq(in.IID())
	det := v.Det && a.seqStable(f, in.IID()) && !f.ctxUnstable
	a.noteRecorded(f, in.IID())
	invalidated := a.Facts.Record(in.IID(), f.Ctx, seq, det, Snapshot(v))
	if a.tracer != nil {
		detN := int64(0)
		if det {
			detN = 1
		}
		a.tracer.Event(obs.Event{Kind: obs.EvFactRecord, N1: int64(in.IID()), N2: detN})
		if invalidated {
			a.tracer.Event(obs.Event{Kind: obs.EvFactInvalidate, N1: int64(in.IID())})
		}
	}
}

// seqStable reports whether the current arrival at id has a stable
// occurrence index in frame f, and taints future arrivals when the current
// one happens under an indeterminate branch (other executions may skip it,
// shifting every later index at a reentrant point).
func (a *Analysis) seqStable(f *DFrame, id ir.ID) bool {
	stable := !f.allSeqTainted && !f.seqTaintedAt(id)
	if a.hasNonLoopBranch() {
		if a.Mod.IsReentrant(id) {
			stable = false
		}
		f.taintSeq(id)
	}
	return stable
}

// nextCallSeq returns the occurrence number for a call site within f.
func (f *DFrame) nextCallSeq(site ir.ID) int {
	if f.siteSeq == nil {
		f.siteSeq = make(map[ir.ID]int)
	}
	s := f.siteSeq[site]
	f.siteSeq[site] = s + 1
	return s
}
