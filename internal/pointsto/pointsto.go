// Package pointsto is a from-scratch Andersen-style (0-CFA, [29])
// points-to and call-graph analysis for mini-JS, standing in for the WALA
// JavaScript analysis [30] used as the paper's static-analysis client
// (§2.2, §5.1).
//
// It reproduces the baseline's characteristic behaviour on reflective code:
// string values are not tracked beyond same-register constants, so a
// computed property name ("get" + prop.cap()) degrades a property access to
// a wildcard access touching every property of the receiver — exactly the
// imprecision determinacy-fact-driven specialization removes. Functions are
// analyzed on demand when they become reachable, so lazily-initialized code
// (jQuery 1.2's pattern) costs nothing.
//
// The analysis is context-insensitive by design: the specializer
// (internal/specialize) materializes per-context clones as distinct
// functions, which is how the paper applies determinacy facts ("creating
// clones of functions based on the full call stacks present in determinacy
// facts").
package pointsto

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
)

// ObjID identifies an abstract object.
type ObjID int

// ObjKind classifies abstract objects.
type ObjKind int

// Abstract object kinds.
const (
	KAlloc   ObjKind = iota // object/array literal or new-site
	KFunc                   // closure per MakeClosure site (or builtin ctor)
	KProto                  // a .prototype object of a function
	KNative                 // builtin function
	KSpecial                // global object, builtin prototypes, DOM objects
)

// Object is one abstract heap object.
type Object struct {
	ID   ObjID
	Kind ObjKind
	Site ir.ID        // allocation site for KAlloc/KFunc/KProto
	Fn   *ir.Function // for KFunc
	Name string       // for KNative/KSpecial and diagnostics

	sum interp.Summary // for KNative: how a call to it is modeled
}

func (o *Object) String() string {
	switch o.Kind {
	case KFunc:
		return fmt.Sprintf("fn:%s@%d", o.Fn.Name, o.Site)
	case KNative:
		return "native:" + o.Name
	case KSpecial:
		return o.Name
	case KProto:
		return fmt.Sprintf("proto@%d", o.Site)
	default:
		return fmt.Sprintf("obj@%d", o.Site)
	}
}

// Options configures the analysis.
type Options struct {
	// Budget bounds solver work (points-to propagation events). 0 means
	// the default of 5 million. Exceeding it sets Result.BudgetExceeded,
	// the deterministic analogue of the paper's 10-minute timeout.
	Budget int
	// Tracer receives solve-phase events and periodic worklist snapshots
	// (EvSolver, every solverSnapshotEvery propagations). nil disables
	// tracing at no cost.
	Tracer obs.Tracer
	// Ctx, when non-nil, is polled every interruptEvery propagations; once
	// it is cancelled or past its deadline, solving stops and
	// Result.Interrupted carries the error.
	Ctx context.Context
}

// solverSnapshotEvery is the propagation-count interval between EvSolver
// snapshots; a power of two so the check is a mask.
const solverSnapshotEvery = 8192

// interruptEvery is the propagation interval between cooperative
// interrupt polls; a power of two so the check is a mask.
const interruptEvery = 2048

// Result carries the analysis outputs.
type Result struct {
	// Callees maps call-site instruction IDs to possible callees.
	Callees map[ir.ID][]*Object
	// BudgetExceeded reports that solving stopped early (the "✗" rows of
	// Table 1).
	BudgetExceeded bool
	// Interrupted is non-nil when solving stopped on context cancellation
	// or a wall-clock deadline. The points-to sets reflect only the work
	// done so far — an under-approximation — so clients must treat an
	// interrupted result like a budget-exceeded one, never as a sound
	// whole-program answer.
	Interrupted error
	// Propagations counts points-to propagation events (the work metric).
	Propagations int
	// NumObjects and NumNodes describe problem size.
	NumObjects int
	NumNodes   int
	// ReachableFuncs counts user functions that became reachable.
	ReachableFuncs int
	// EvalSites lists call sites whose only resolved callee is the eval
	// native: code the static analysis cannot see.
	EvalSites []ir.ID
	// WorklistHWM is the worklist's high-water mark, a measure of how
	// bursty propagation was (sharding/batching candidates watch this).
	WorklistHWM int
	// Duration is solver wall-clock time.
	Duration time.Duration

	an *analysis
}

// PointsToVar returns the abstract objects a function-local variable may
// hold.
func (r *Result) PointsToVar(fn *ir.Function, slot int) []*Object {
	n := r.an.varNode(fn, slot)
	return r.an.objsOf(n)
}

// PointsToGlobal returns the abstract objects a global may hold.
func (r *Result) PointsToGlobal(name string) []*Object {
	n := r.an.fieldNode(r.an.globalObj, name)
	return r.an.objsOf(n)
}

// CalleesAt returns the possible callees of a call site.
func (r *Result) CalleesAt(site ir.ID) []*Object { return r.Callees[site] }

// ---------------------------------------------------------------------------

// bitset is a simple growable bitset over ObjIDs.
type bitset []uint64

func (b *bitset) add(i ObjID) bool {
	w, m := int(i)/64, uint64(1)<<(uint(i)%64)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	if (*b)[w]&m != 0 {
		return false
	}
	(*b)[w] |= m
	return true
}

func (b bitset) has(i ObjID) bool {
	w, m := int(i)/64, uint64(1)<<(uint(i)%64)
	return w < len(b) && b[w]&m != 0
}

func (b bitset) forEach(f func(ObjID)) {
	for w, word := range b {
		for word != 0 {
			bit := word & -word
			idx := ObjID(w*64 + trailingZeros(bit))
			f(idx)
			word &^= bit
		}
	}
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// constraint reacts to new objects arriving at a node.
type constraint interface {
	apply(a *analysis, o ObjID)
}

type node struct {
	pts         bitset
	delta       []ObjID
	copies      []int
	copySet     map[int]bool
	constraints []constraint
	constrKeys  map[constrKey]bool
	inWorklist  bool
}

// constrKey identifies a deduplicatable constraint as a comparable value,
// so attaching one costs a struct map probe instead of rendering a string:
// kind distinguishes loads from stores, wild/field mirror the selector, and
// node is the constraint's dst (loads) or src (stores) endpoint.
type constrKey struct {
	kind  uint8 // 'l' for loads, 's' for stores
	wild  bool
	field string
	node  int
}

// keyedConstraint marks constraints that participate in deduplication.
type keyedConstraint interface {
	constraint
	ckey() constrKey
}

// analysis is the solver state.
type analysis struct {
	mod  *ir.Module
	opts Options

	objs  []*Object
	nodes []*node

	varNodes   map[varKey]int
	regNodes   map[regKey]int
	fieldNodes map[fieldKey]int
	protoNodes map[ObjID]int
	wildNodes  map[ObjID]int
	retNodes   map[int]int // function index -> return node

	// fieldsOf tracks the named fields materialized per object, and
	// wildcard-load subscribers to notify when new fields appear.
	fieldsOf  map[ObjID]map[string]int
	wildLoads map[ObjID][]int

	// processed marks functions whose bodies have been translated to
	// constraints (reachability).
	processed map[int]bool

	// regStr tracks registers holding known constant strings (same-function
	// constant propagation only, as in typical baselines).
	regStr map[regKey]*string

	// funcObjOf maps MakeClosure sites to their function object, protoObjOf
	// to the associated .prototype object.
	funcObjOf  map[ir.ID]ObjID
	allocObjOf map[ir.ID]ObjID

	callSites map[ir.ID]*callInfo

	// The builtin objects the constraints refer to, and each modeled
	// constructor's .prototype.
	globalObj, evalObj                     ObjID
	objectProto, functionProto, arrayProto ObjID
	domElement, domNodeList, domEvent      ObjID
	ctorProto                              map[ObjID]ObjID

	worklist    []int
	worklistHWM int
	work        int
	exceeded    bool
	interrupted error
	tracer      obs.Tracer
}

type varKey struct {
	fn   int
	slot int
}

type regKey struct {
	fn  int
	reg ir.Reg
}

type fieldKey struct {
	obj   ObjID
	field string
}

type callInfo struct {
	site     ir.ID
	fn       *ir.Function // caller
	args     []ir.Reg
	this     ir.Reg
	dst      ir.Reg
	isNew    bool
	resolved map[ObjID]bool
}

// AnalyzeGuarded is Analyze behind a guard panic boundary: a solver panic
// returns as a structured *guard.RunError instead of crashing the caller.
// The batch layers and the public API route through it so one poisoned
// module cannot take down a whole experiment sweep.
func AnalyzeGuarded(mod *ir.Module, opts Options) (res *Result, err error) {
	defer guard.Boundary(&err, "solve", nil)
	return Analyze(mod, opts), nil
}

// Analyze runs the points-to analysis on a module.
func Analyze(mod *ir.Module, opts Options) *Result {
	if opts.Budget == 0 {
		opts.Budget = 5_000_000
	}
	a := &analysis{
		mod:        mod,
		opts:       opts,
		varNodes:   map[varKey]int{},
		regNodes:   map[regKey]int{},
		fieldNodes: map[fieldKey]int{},
		protoNodes: map[ObjID]int{},
		wildNodes:  map[ObjID]int{},
		retNodes:   map[int]int{},
		fieldsOf:   map[ObjID]map[string]int{},
		wildLoads:  map[ObjID][]int{},
		processed:  map[int]bool{},
		regStr:     map[regKey]*string{},
		funcObjOf:  map[ir.ID]ObjID{},
		allocObjOf: map[ir.ID]ObjID{},
		callSites:  map[ir.ID]*callInfo{},
		ctorProto:  map[ObjID]ObjID{},
		tracer:     opts.Tracer,
	}
	start := time.Now()
	done := obs.PhaseScope(a.tracer, "solve")
	a.setupBuiltins()
	a.processFunction(mod.Top())
	a.solve()
	a.snapshot()
	done()

	res := &Result{
		Callees:        map[ir.ID][]*Object{},
		BudgetExceeded: a.exceeded,
		Interrupted:    a.interrupted,
		Propagations:   a.work,
		NumObjects:     len(a.objs),
		NumNodes:       len(a.nodes),
		WorklistHWM:    a.worklistHWM,
		Duration:       time.Since(start),
		an:             a,
	}
	for fi := range a.processed {
		if fi >= 0 {
			res.ReachableFuncs++
		}
	}
	for site, ci := range a.callSites {
		onlyEval := len(ci.resolved) > 0
		for o := range ci.resolved {
			res.Callees[site] = append(res.Callees[site], a.objs[o])
			if o != a.evalObj {
				onlyEval = false
			}
		}
		if onlyEval {
			res.EvalSites = append(res.EvalSites, site)
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Node and object management

func (a *analysis) newObject(o *Object) ObjID {
	o.ID = ObjID(len(a.objs))
	a.objs = append(a.objs, o)
	return o.ID
}

func (a *analysis) newNode() int {
	a.nodes = append(a.nodes, &node{})
	return len(a.nodes) - 1
}

func (a *analysis) varNode(fn *ir.Function, slot int) int {
	k := varKey{fn.Index, slot}
	n, ok := a.varNodes[k]
	if !ok {
		n = a.newNode()
		a.varNodes[k] = n
	}
	return n
}

func (a *analysis) regNode(fn *ir.Function, reg ir.Reg) int {
	k := regKey{fn.Index, reg}
	n, ok := a.regNodes[k]
	if !ok {
		n = a.newNode()
		a.regNodes[k] = n
	}
	return n
}

// fieldNode returns the node for a named field of an object, notifying
// wildcard-load subscribers when the field is new.
func (a *analysis) fieldNode(obj ObjID, field string) int {
	k := fieldKey{obj, field}
	n, ok := a.fieldNodes[k]
	if !ok {
		n = a.newNode()
		a.fieldNodes[k] = n
		fm := a.fieldsOf[obj]
		if fm == nil {
			fm = map[string]int{}
			a.fieldsOf[obj] = fm
		}
		fm[field] = n
		for _, dst := range a.wildLoads[obj] {
			a.addCopy(n, dst)
		}
	}
	return n
}

// wildNode is the store target for property writes with unknown names.
func (a *analysis) wildNode(obj ObjID) int {
	n, ok := a.wildNodes[obj]
	if !ok {
		n = a.newNode()
		a.wildNodes[obj] = n
	}
	return n
}

// protoNode holds the possible prototype objects of an object.
func (a *analysis) protoNode(obj ObjID) int {
	n, ok := a.protoNodes[obj]
	if !ok {
		n = a.newNode()
		a.protoNodes[obj] = n
	}
	return n
}

func (a *analysis) retNode(fn *ir.Function) int {
	n, ok := a.retNodes[fn.Index]
	if !ok {
		n = a.newNode()
		a.retNodes[fn.Index] = n
	}
	return n
}

func (a *analysis) objsOf(n int) []*Object {
	var out []*Object
	a.nodes[n].pts.forEach(func(o ObjID) { out = append(out, a.objs[o]) })
	return out
}

// ---------------------------------------------------------------------------
// Graph construction helpers

func (a *analysis) addObj(n int, o ObjID) {
	nd := a.nodes[n]
	if nd.pts.add(o) {
		nd.delta = append(nd.delta, o)
		a.enqueue(n)
	}
}

func (a *analysis) addCopy(from, to int) {
	if from == to {
		return
	}
	nd := a.nodes[from]
	// Deduplicate edges: shared sources (prototype wildcards) otherwise
	// accumulate one edge per load site per object, a quadratic blowup in
	// solver time without changing the points-to result.
	if nd.copySet == nil {
		nd.copySet = make(map[int]bool, 4)
	}
	if nd.copySet[to] {
		return
	}
	nd.copySet[to] = true
	nd.copies = append(nd.copies, to)
	// Propagate existing objects along the new edge.
	nd.pts.forEach(func(o ObjID) { a.addObj(to, o) })
}

func (a *analysis) addConstraint(n int, c constraint) {
	nd := a.nodes[n]
	if k, ok := c.(keyedConstraint); ok {
		key := k.ckey()
		if nd.constrKeys == nil {
			nd.constrKeys = make(map[constrKey]bool, 4)
		}
		if nd.constrKeys[key] {
			return
		}
		nd.constrKeys[key] = true
	}
	nd.constraints = append(nd.constraints, c)
	nd.pts.forEach(func(o ObjID) { c.apply(a, o) })
}

// addLoad attaches a load constraint to node n like addConstraint would,
// but checks the dedup table before allocating the constraint at all. The
// recursive prototype attachment in loadC.apply re-derives the same load
// once per arriving object, so on the hot path the probe almost always
// hits and the allocation never happens.
func (a *analysis) addLoad(n int, field string, wild bool, dst int) {
	nd := a.nodes[n]
	key := constrKey{kind: 'l', wild: wild, field: field, node: dst}
	if nd.constrKeys == nil {
		nd.constrKeys = make(map[constrKey]bool, 4)
	}
	if nd.constrKeys[key] {
		return
	}
	nd.constrKeys[key] = true
	c := &loadC{field: field, wild: wild, dst: dst}
	nd.constraints = append(nd.constraints, c)
	nd.pts.forEach(func(o ObjID) { c.apply(a, o) })
}

func (a *analysis) enqueue(n int) {
	nd := a.nodes[n]
	if !nd.inWorklist {
		nd.inWorklist = true
		a.worklist = append(a.worklist, n)
		if len(a.worklist) > a.worklistHWM {
			a.worklistHWM = len(a.worklist)
		}
	}
}

// snapshot emits an EvSolver event describing the current solver state.
func (a *analysis) snapshot() {
	if a.tracer == nil {
		return
	}
	a.tracer.Event(obs.Event{Kind: obs.EvSolver,
		N1: int64(a.work), N2: int64(len(a.worklist)),
		N3: int64(len(a.nodes)), N4: int64(len(a.objs))})
}

func (a *analysis) solve() {
	// Poll once up front: a context that is already done must stop even a
	// solve too small to reach the every-interruptEvery poll inside the
	// loop.
	if err := guard.CheckInterrupt(a.opts.Ctx); err != nil {
		a.interrupted = err
		return
	}
	for len(a.worklist) > 0 {
		n := a.worklist[len(a.worklist)-1]
		a.worklist = a.worklist[:len(a.worklist)-1]
		nd := a.nodes[n]
		nd.inWorklist = false
		delta := nd.delta
		nd.delta = nil
		for _, o := range delta {
			a.work++
			if a.work > a.opts.Budget {
				a.exceeded = true
				return
			}
			if a.work&(interruptEvery-1) == 0 {
				if faultinject.Armed() {
					faultinject.Hit(faultinject.SiteSolverProp)
				}
				if err := guard.CheckInterrupt(a.opts.Ctx); err != nil {
					a.interrupted = err
					return
				}
			}
			if a.tracer != nil && a.work%solverSnapshotEvery == 0 {
				a.snapshot()
			}
			for _, to := range nd.copies {
				a.addObj(to, o)
			}
			for _, c := range nd.constraints {
				c.apply(a, o)
			}
		}
	}
}

// Export publishes the solver's result counters into a metrics registry
// using the pipeline's canonical metric names.
func (r *Result) Export(m *obs.Metrics) {
	m.Counter("pointsto_propagations_total").Add(int64(r.Propagations))
	m.Gauge("pointsto_nodes").Set(float64(r.NumNodes))
	m.Gauge("pointsto_objects").Set(float64(r.NumObjects))
	m.Gauge("pointsto_reachable_funcs").Set(float64(r.ReachableFuncs))
	m.Gauge("pointsto_worklist_hwm").SetMax(float64(r.WorklistHWM))
	m.Gauge("pointsto_eval_sites").Set(float64(len(r.EvalSites)))
	exceeded := 0.0
	if r.BudgetExceeded {
		exceeded = 1
	}
	m.Gauge("pointsto_budget_exceeded").Set(exceeded)
	interrupted := 0.0
	if r.Interrupted != nil {
		interrupted = 1
	}
	m.Gauge("pointsto_interrupted").Set(interrupted)
	m.Gauge("pointsto_duration_seconds").Set(r.Duration.Seconds())
}

// FunctionReached reports whether the function with the given index became
// reachable during solving.
func (r *Result) FunctionReached(idx int) bool { return r.an.processed[idx] }

// FieldObjects returns the points-to set of a named field of an abstract
// object (diagnostics).
func (r *Result) FieldObjects(o *Object, field string) []*Object {
	return r.an.objsOf(r.an.fieldNode(o.ID, field))
}

// WildObjects returns the wildcard points-to set of an abstract object
// (diagnostics).
func (r *Result) WildObjects(o *Object) []*Object {
	return r.an.objsOf(r.an.wildNode(o.ID))
}
