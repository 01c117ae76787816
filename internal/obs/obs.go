// Package obs is the zero-dependency observability layer for the
// determinacy pipeline: a typed event stream (Tracer) plus a registry of
// named metrics (Metrics).
//
// The paper's headline results are explained by internal dynamics — heap
// flush counts (§4), counterfactual nesting (§3.3), points-to propagation
// work (§5.1) — so every stage of the pipeline emits events describing
// those dynamics. A nil Tracer disables tracing; every emission site is
// guarded so the disabled path costs one predictable branch and zero
// allocations (asserted by TestObsDisabledTracerZeroAlloc).
//
// Built-in sinks:
//
//   - Collector: ring-buffered in-memory sink for tests and summaries.
//   - JSONLWriter: one JSON object per event, for ad-hoc tooling.
//   - ChromeTrace: Chrome trace_event JSON, loadable in Perfetto or
//     about://tracing, showing phase timings and counterfactual nesting.
//
// Metrics are dumped either as a Prometheus-style text page (WriteProm) or
// as deterministic JSON (WriteJSON), so EXPERIMENTS.md tables regenerate
// from machine-readable output.
package obs

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds. The numeric payload fields N1..N4 of Event carry
// kind-specific data, documented per kind.
const (
	// EvPhaseBegin/EvPhaseEnd bracket a pipeline phase; Phase is the phase
	// name (parse, lower, exec, handlers, solve, specialize).
	EvPhaseBegin EventKind = iota
	EvPhaseEnd
	// EvHeapFlush is one heap flush; Phase is the reason, N1 the heap
	// epoch after the flush, N2 the cumulative flush count.
	EvHeapFlush
	// EvEnvFlush is one environment flush; N1 is the env epoch after it.
	EvEnvFlush
	// EvBranchEnter/EvBranchExit bracket execution under an
	// indeterminate-condition branch frame; N1 is the branch-stack depth,
	// Detail is "loop" for the frame of a non-reentrant loop (stable occurrence
	// numbering) and empty otherwise.
	EvBranchEnter
	EvBranchExit
	// EvCFEnter/EvCFExit bracket a counterfactual execution (rule CNTR);
	// N1 is the counterfactual nesting depth (1 = outermost).
	EvCFEnter
	EvCFExit
	// EvTaint reports indeterminacy spreading to a set of locations; Phase
	// is the mechanism (post-branch-mark, cf-undo-mark, static-writes,
	// open-record), N1 the number of affected locations.
	EvTaint
	// EvFactRecord is one fact observation; N1 is the instruction ID, N2
	// is 1 when the observation is determinate and 0 otherwise.
	EvFactRecord
	// EvFactInvalidate reports a previously determinate fact joining to
	// indeterminate; N1 is the instruction ID.
	EvFactInvalidate
	// EvEval is a dynamically encountered eval call; Detail is "det" or
	// "indet" (the argument's determinacy), N1 the source length.
	EvEval
	// EvSolver is a points-to worklist snapshot; N1 is propagation work so
	// far, N2 the current worklist length, N3 the node count, N4 the
	// abstract-object count.
	EvSolver
	// EvGuard is a guard-layer outcome: Phase is "degrade" (graceful
	// partial result; Detail the DegradeReason) or "recover" (panic
	// converted to a structured error; Detail the panicking phase).
	EvGuard
	// EvCache is a compile-cache lookup; Phase is the cache name and
	// Detail "hit" or "miss".
	EvCache
	numEventKinds
)

var kindNames = [numEventKinds]string{
	EvPhaseBegin:     "phase-begin",
	EvPhaseEnd:       "phase-end",
	EvHeapFlush:      "heap-flush",
	EvEnvFlush:       "env-flush",
	EvBranchEnter:    "branch-enter",
	EvBranchExit:     "branch-exit",
	EvCFEnter:        "cf-enter",
	EvCFExit:         "cf-exit",
	EvTaint:          "taint",
	EvFactRecord:     "fact-record",
	EvFactInvalidate: "fact-invalidate",
	EvEval:           "eval",
	EvSolver:         "solver",
	EvGuard:          "guard",
	EvCache:          "cache",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. It is passed by value so that emitting into a
// nil-guarded tracer performs no heap allocation. Timestamps are stamped by
// sinks on arrival, keeping emission sites cheap.
type Event struct {
	Kind EventKind
	// Phase carries the phase name (EvPhase*), flush reason (EvHeapFlush)
	// or taint mechanism (EvTaint).
	Phase string
	// Detail is a secondary discriminator; see the kind docs.
	Detail string
	// N1..N4 are kind-specific numeric payloads; see the kind docs.
	N1, N2, N3, N4 int64
}

// Tracer receives the event stream. Implementations must be safe for use
// from a single goroutine per pipeline; the built-in sinks are additionally
// mutex-guarded so one sink can serve concurrent pipelines.
type Tracer interface {
	Event(e Event)
}

// multi fans events out to several tracers.
type multi []Tracer

func (m multi) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// Multi combines tracers, dropping nils. It returns nil when no tracer
// remains, preserving the disabled fast path, and the sole tracer when only
// one remains.
func Multi(ts ...Tracer) Tracer {
	var out multi
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// noop is shared by PhaseScope so the disabled path allocates nothing.
var noop = func() {}

// PhaseScope emits EvPhaseBegin and returns a function emitting the
// matching EvPhaseEnd. With a nil tracer it returns a shared no-op.
func PhaseScope(t Tracer, name string) func() {
	if t == nil {
		return noop
	}
	t.Event(Event{Kind: EvPhaseBegin, Phase: name})
	return func() { t.Event(Event{Kind: EvPhaseEnd, Phase: name}) }
}
