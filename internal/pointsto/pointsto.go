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
	"slices"
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
	// Callees maps call-site instruction IDs to possible callees, in
	// ascending ObjID order.
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
	// native: code the static analysis cannot see. Sites are in ascending
	// order.
	EvalSites []ir.ID
	// WorklistHWM is the worklist's high-water mark, a measure of how
	// bursty propagation was (sharding/batching candidates watch this).
	WorklistHWM int
	// Duration is solver wall-clock time.
	Duration time.Duration

	an *analysis
}

// PointsToVar returns the abstract objects a function-local variable may
// hold. Like every query on a Result, it only reads the solve, so
// goroutines may share one Result.
func (r *Result) PointsToVar(fn *ir.Function, slot int) []*Object {
	n, ok := r.an.varNodes[varKey{fn.Index, slot}]
	if !ok {
		return nil
	}
	return r.an.objsOf(n)
}

// PointsToGlobal returns the abstract objects a global may hold.
func (r *Result) PointsToGlobal(name string) []*Object {
	return r.an.fieldObjects(r.an.globalObj, name)
}

// ---------------------------------------------------------------------------

// bitset is a growable set of small non-negative integers: the objects of
// a points-to set or the callees a call site resolved, by ObjID, and the
// targets of a node's copy edges, by node ID.
type bitset []uint64

func (b *bitset) add(i int) bool {
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	if (*b)[w]&m != 0 {
		return false
	}
	(*b)[w] |= m
	return true
}

func (b bitset) forEach(f func(ObjID)) {
	for w, word := range b {
		for word != 0 {
			f(ObjID(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// scanMax is the length up to which a nodeList finds duplicates by
// scanning; a longer list keeps a node-ID bitset beside it.
const scanMax = 64

// nodeList is an insertion-ordered list of distinct node IDs.
type nodeList struct {
	ids  []int32
	seen *bitset // ids as a set, once there are more than scanMax
}

// add appends n unless the list holds it already. numNodes sizes the set
// when the list outgrows a scan.
func (l *nodeList) add(n, numNodes int) bool {
	if l.seen != nil {
		if !l.seen.add(n) {
			return false
		}
	} else {
		for _, id := range l.ids {
			if int(id) == n {
				return false
			}
		}
		if len(l.ids) == scanMax {
			seen := make(bitset, numNodes/64+1)
			for _, id := range l.ids {
				seen.add(int(id))
			}
			seen.add(n)
			l.seen = &seen
		}
	}
	l.ids = append(l.ids, int32(n))
	return true
}

// constraint reacts to new objects arriving at a node.
type constraint interface {
	apply(a *analysis, o ObjID)
}

type node struct {
	pts bitset
	// delta holds the objects added to pts since the node was last
	// processed, in the order they arrived.
	delta       []ObjID
	copies      nodeList
	constraints []constraint
	constrKeys  map[constrKey]bool
	inWorklist  bool
}

// wildcard is the field of a load or store whose property name is unknown:
// it reads every field of the object, or writes its wildcard node.
const wildcard = -1

// constrKey identifies a load or store at a node in eight bytes, so
// deduplicating one costs a probe of a map with word-sized keys: field is
// the interned property name (or wildcard), and node the constraint's
// other endpoint: the dst of a load, or ^src, always negative, of a store.
type constrKey struct {
	field int32
	node  int32
}

// objNodes holds the nodes hung off one abstract object.
type objNodes struct {
	// proto and wild are the object's prototype and wildcard nodes, -1
	// until first asked for.
	proto, wild int32
	// fields are the named fields in the order they were created.
	fields []objField
	// wildLoads are the destinations of the wildcard loads that reached
	// the object; a field created later is copied to each of them.
	wildLoads nodeList
}

type objField struct {
	name int32 // interned
	node int32
}

// analysis is the solver state.
type analysis struct {
	mod  *ir.Module
	opts Options

	objs  []*Object
	nodes []*node

	varNodes map[varKey]int
	regNodes map[regKey]int
	// fieldIDs interns property names, numbered from 0, and fieldNodes
	// holds the named-field nodes. A solve's maps hold only what it added:
	// the builtin template's are their read-only lower layer, baseFieldIDs
	// and baseFieldNodes (nil in the template itself). baseObjs and
	// baseFields count the template's objects and names.
	fieldIDs             map[string]int
	fieldNodes           map[fieldKey]int
	baseFieldIDs         map[string]int
	baseFieldNodes       map[fieldKey]int
	baseObjs, baseFields int32
	// objNodes is indexed by ObjID; retNodes by function index, -1 until
	// first asked for.
	objNodes []objNodes
	retNodes []int
	thrown   int

	// processed marks, by function index, the functions whose bodies have
	// been translated to constraints (reachability).
	processed []bool

	// regStr tracks registers holding known constant strings (same-function
	// constant propagation only, as in typical baselines).
	regStr map[regKey]*string

	// funcObjOf maps MakeClosure sites to their function object, protoObjOf
	// to the associated .prototype object.
	funcObjOf  map[ir.ID]ObjID
	allocObjOf map[ir.ID]ObjID

	callSites []*callInfo

	builtins

	worklist    []int
	worklistHWM int
	work        int
	exceeded    bool
	interrupted error
	tracer      obs.Tracer
}

// builtins are the builtin objects the constraints refer to, and each
// modeled constructor's .prototype. Every solve shares the template's:
// none is written after setupBuiltins.
type builtins struct {
	globalObj, evalObj                     ObjID
	objectProto, functionProto, arrayProto ObjID
	domElement, domNodeList, domEvent      ObjID
	ctorProto                              map[ObjID]ObjID
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
	obj   int32 // ObjID
	field int32
}

type callInfo struct {
	site     ir.ID
	fn       *ir.Function // caller
	args     []ir.Reg
	this     ir.Reg
	dst      ir.Reg
	isNew    bool
	resolved bitset // callee ObjIDs wired so far
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
	numFuncs := len(mod.Funcs())
	a := &analysis{
		mod:        mod,
		opts:       opts,
		varNodes:   map[varKey]int{},
		regNodes:   map[regKey]int{},
		fieldNodes: map[fieldKey]int{},
		retNodes:   make([]int, numFuncs),
		thrown:     -1,
		fieldIDs:   map[string]int{},
		processed:  make([]bool, numFuncs),
		regStr:     map[regKey]*string{},
		funcObjOf:  map[ir.ID]ObjID{},
		allocObjOf: map[ir.ID]ObjID{},
		tracer:     opts.Tracer,
	}
	for i := range a.retNodes {
		a.retNodes[i] = -1
	}
	start := time.Now()
	done := obs.PhaseScope(a.tracer, "solve")
	a.startFrom(builtinTemplate())
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
	for _, p := range a.processed {
		if p {
			res.ReachableFuncs++
		}
	}
	for _, ci := range a.callSites {
		var callees []*Object
		onlyEval := true
		ci.resolved.forEach(func(o ObjID) {
			callees = append(callees, a.objs[o])
			onlyEval = onlyEval && o == a.evalObj
		})
		if len(callees) == 0 {
			continue
		}
		res.Callees[ci.site] = callees
		if onlyEval {
			res.EvalSites = append(res.EvalSites, ci.site)
		}
	}
	slices.Sort(res.EvalSites)
	return res
}

// ---------------------------------------------------------------------------
// Node and object management

func (a *analysis) newObject(o *Object) ObjID {
	o.ID = ObjID(len(a.objs))
	a.objs = append(a.objs, o)
	a.objNodes = append(a.objNodes, objNodes{proto: -1, wild: -1})
	return o.ID
}

func (a *analysis) newNode() int {
	a.nodes = append(a.nodes, &node{})
	return len(a.nodes) - 1
}

// fieldID interns a property name.
func (a *analysis) fieldID(name string) int {
	id, ok := a.lookupFieldID(name)
	if !ok {
		id = len(a.baseFieldIDs) + len(a.fieldIDs)
		a.fieldIDs[name] = id
	}
	return id
}

// lookupFieldID is a property name's ID if it is interned.
func (a *analysis) lookupFieldID(name string) (int, bool) {
	if id, ok := a.baseFieldIDs[name]; ok {
		return id, true
	}
	id, ok := a.fieldIDs[name]
	return id, ok
}

// lookupFieldNode is a named field's node if it exists. Only a field of a
// builtin object with a name the builtins interned can be in the
// template's layer, so the lookups on the solver's hot path skip it.
func (a *analysis) lookupFieldNode(k fieldKey) (int, bool) {
	if k.obj < a.baseObjs && k.field < a.baseFields {
		if n, ok := a.baseFieldNodes[k]; ok {
			return n, true
		}
	}
	n, ok := a.fieldNodes[k]
	return n, ok
}

// namedField is fieldNode by property name.
func (a *analysis) namedField(obj ObjID, name string) int {
	return a.fieldNode(obj, a.fieldID(name))
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

// fieldNode returns the node for a named field of an object, connecting
// the object's wildcard loads when the field is new.
func (a *analysis) fieldNode(obj ObjID, field int) int {
	k := fieldKey{int32(obj), int32(field)}
	n, ok := a.lookupFieldNode(k)
	if !ok {
		n = a.newNode()
		a.fieldNodes[k] = n
		on := &a.objNodes[obj]
		on.fields = append(on.fields, objField{int32(field), int32(n)})
		for _, dst := range on.wildLoads.ids {
			a.addCopy(n, int(dst))
		}
	}
	return n
}

// wildNode is the store target for property writes with unknown names.
func (a *analysis) wildNode(obj ObjID) int {
	on := &a.objNodes[obj]
	if on.wild < 0 {
		on.wild = int32(a.newNode())
	}
	return int(on.wild)
}

// protoNode holds the possible prototype objects of an object.
func (a *analysis) protoNode(obj ObjID) int {
	on := &a.objNodes[obj]
	if on.proto < 0 {
		on.proto = int32(a.newNode())
	}
	return int(on.proto)
}

func (a *analysis) retNode(fn *ir.Function) int {
	if a.retNodes[fn.Index] < 0 {
		a.retNodes[fn.Index] = a.newNode()
	}
	return a.retNodes[fn.Index]
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
	if nd.pts.add(int(o)) {
		nd.delta = append(nd.delta, o)
		a.enqueue(n)
	}
}

func (a *analysis) addCopy(from, to int) {
	if from == to {
		return
	}
	// Deduplicate edges: shared sources (prototype wildcards) otherwise
	// accumulate one edge per load site per object, a quadratic blowup in
	// solver time without changing the points-to result.
	src := a.nodes[from]
	if !src.copies.add(to, len(a.nodes)) {
		return
	}
	// Propagate existing objects along the new edge a word at a time: the
	// new ones join the delta in ascending order, as addObj would add them
	// one by one.
	dst := a.nodes[to]
	if len(dst.pts) < len(src.pts) {
		dst.pts = append(dst.pts, make([]uint64, len(src.pts)-len(dst.pts))...)
	}
	added := false
	for w, word := range src.pts {
		fresh := word &^ dst.pts[w]
		if fresh == 0 {
			continue
		}
		dst.pts[w] |= fresh
		for ; fresh != 0; fresh &= fresh - 1 {
			dst.delta = append(dst.delta, ObjID(w*64+bits.TrailingZeros64(fresh)))
		}
		added = true
	}
	if added {
		a.enqueue(to)
	}
}

func (a *analysis) addConstraint(n int, c constraint) {
	nd := a.nodes[n]
	nd.constraints = append(nd.constraints, c)
	a.applyExisting(nd, c)
}

// addLoad attaches dst ⊇ n.field to node n unless it is there already. The
// probe comes before the allocation: the recursive prototype attachment in
// loadC.apply re-derives the same load once per arriving object, so on the
// hot path the probe almost always hits.
func (a *analysis) addLoad(n, field, dst int) {
	if a.nodes[n].claim(constrKey{int32(field), int32(dst)}) {
		a.addConstraint(n, &loadC{field: field, dst: dst})
	}
}

// addStore attaches n.field ⊇ src to node n unless it is there already.
func (a *analysis) addStore(n, field, src int) {
	if a.nodes[n].claim(constrKey{int32(field), ^int32(src)}) {
		a.addConstraint(n, &storeC{field: field, src: src})
	}
}

// claim records a load or store at the node, reporting whether it is new
// there.
func (nd *node) claim(key constrKey) bool {
	if nd.constrKeys == nil {
		nd.constrKeys = make(map[constrKey]bool, 4)
	}
	if nd.constrKeys[key] {
		return false
	}
	nd.constrKeys[key] = true
	return true
}

// applyExisting applies a newly attached constraint to the objects already
// at the node.
func (a *analysis) applyExisting(nd *node, c constraint) {
	for w, word := range nd.pts {
		for ; word != 0; word &= word - 1 {
			c.apply(a, ObjID(w*64+bits.TrailingZeros64(word)))
		}
	}
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
			for _, to := range nd.copies.ids {
				a.addObj(int(to), o)
			}
			for _, c := range nd.constraints {
				c.apply(a, o)
			}
		}
		if nd.delta == nil {
			// Nothing arrived while the delta was processed: keep its
			// array for the next one.
			nd.delta = delta[:0]
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

// FieldObjects returns the points-to set of a named field of an abstract
// object (diagnostics).
func (r *Result) FieldObjects(o *Object, field string) []*Object {
	return r.an.fieldObjects(o.ID, field)
}

// WildObjects returns the wildcard points-to set of an abstract object
// (diagnostics).
func (r *Result) WildObjects(o *Object) []*Object {
	wild := r.an.objNodes[o.ID].wild
	if wild < 0 {
		return nil
	}
	return r.an.objsOf(int(wild))
}

// fieldObjects is the points-to set of a named field, nil when the solve
// never created the field.
func (a *analysis) fieldObjects(obj ObjID, name string) []*Object {
	id, ok := a.lookupFieldID(name)
	if !ok {
		return nil
	}
	n, ok := a.lookupFieldNode(fieldKey{int32(obj), int32(id)})
	if !ok {
		return nil
	}
	return a.objsOf(n)
}
