// Package guard is the run-isolation and graceful-degradation layer of
// the pipeline: cooperative stops, whose one carrier is a run's
// context.Context (cancellation, or its deadline; CheckInterrupt, polled by
// the interpreters and the solver every few thousand steps), panic
// boundaries converting interpreter and solver panics into structured
// *RunError values instead of crashing the process (Boundary), and the
// DegradeReason taxonomy for partial results. The faultinject subpackage
// drives every recovery path deterministically.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"determinacy/internal/guard/faultinject"
	"determinacy/internal/obs"
)

// ErrDeadline reports that a run hit its context's deadline. It wraps
// context.DeadlineExceeded, so errors.Is matches either through every API
// layer.
var ErrDeadline = fmt.Errorf("guard: wall-clock deadline exceeded: %w", context.DeadlineExceeded)

// CheckInterrupt polls the cooperative stop conditions of ctx (plus
// injected deadline expiries during fault campaigns). A context whose
// cause is context.DeadlineExceeded stops with ErrDeadline; any other
// cancellation stops with its cause wrapped. Interpreters call it every
// few thousand steps; with a nil or background context it costs a few
// branches.
func CheckInterrupt(ctx context.Context) error {
	if ctx != nil {
		select {
		case <-ctx.Done():
			cause := context.Cause(ctx)
			if errors.Is(cause, context.DeadlineExceeded) {
				return ErrDeadline
			}
			return fmt.Errorf("guard: run cancelled: %w", cause)
		default:
		}
	}
	if faultinject.Expired() {
		return ErrDeadline
	}
	return nil
}

// DegradeReason classifies why a run returned a partial result instead of
// completing.
type DegradeReason string

const (
	DegradeNone     DegradeReason = ""
	DegradeBudget   DegradeReason = "budget"    // step budget exhausted
	DegradeFlushCap DegradeReason = "flush-cap" // heap-flush cap reached
	DegradeDeadline DegradeReason = "deadline"  // context deadline expired
	DegradeCancel   DegradeReason = "cancel"    // context cancelled
)

// ContextReason maps interrupt errors produced by CheckInterrupt to their
// degrade reasons. The budget and flush-cap sentinels live in
// internal/core; the public API layer classifies those.
func ContextReason(err error) DegradeReason {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return DegradeDeadline
	case errors.Is(err, context.Canceled):
		return DegradeCancel
	}
	return DegradeNone
}

// RunError is the structured form of a panic recovered at a run entry
// point: which pipeline phase panicked, where execution was, the
// recovered value, and the panicking goroutine's stack.
type RunError struct {
	Phase     string // "exec", "interp", "handlers", "solve", "batch"
	Instr     int    // IR instruction ID active at the panic; -1 when unknown
	Pos       string // "line:col" source position of Instr; "" when unknown
	Recovered any    // the recovered panic value
	Stack     []byte // stack trace captured at recovery
}

func (e *RunError) Error() string {
	at := ""
	if e.Pos != "" {
		at = fmt.Sprintf(" at %s (instr %d)", e.Pos, e.Instr)
	}
	return fmt.Sprintf("guard: panic in %s phase%s: %v", e.Phase, at, e.Recovered)
}

// Unwrap exposes a recovered error value (e.g. faultinject.Injected) to
// errors.Is/errors.As chains.
func (e *RunError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// New builds a RunError from a recovered panic value, capturing the
// current stack.
func New(phase string, recovered any) *RunError {
	return &RunError{Phase: phase, Instr: -1, Recovered: recovered, Stack: debug.Stack()}
}

// Boundary is the deferred panic boundary for run entry points:
//
//	func (a *Analysis) Run() (v Value, err error) {
//		defer guard.Boundary(&err, "exec", a.CurrentPoint)
//		...
//
// point, when non-nil, reports the instruction ID and source position
// execution had reached. A *RunError panicking through a nested boundary
// passes through unchanged, keeping the innermost phase attribution.
func Boundary(errp *error, phase string, point func() (instr int, pos string)) {
	r := recover()
	if r == nil {
		return
	}
	if re, ok := r.(*RunError); ok {
		*errp = re
		return
	}
	e := New(phase, r)
	if point != nil {
		e.Instr, e.Pos = point()
	}
	*errp = e
}

// Metric names for guard outcomes published into internal/obs registries.
const (
	MetricRecovered = "guard_recovered_panics_total"
	MetricDegraded  = "guard_degraded_runs_total"
)

// CountRecovered publishes a recovered panic into a metrics registry,
// total plus a per-phase labelled series. nil registries are ignored.
func CountRecovered(m *obs.Metrics, phase string) {
	if m == nil {
		return
	}
	m.Counter(MetricRecovered).Inc()
	m.Counter(fmt.Sprintf(MetricRecovered+`{phase=%q}`, phase)).Inc()
}

// CountDegraded publishes a gracefully degraded (partial-result) run,
// total plus a per-reason labelled series. nil registries and DegradeNone
// are ignored.
func CountDegraded(m *obs.Metrics, reason DegradeReason) {
	if m == nil || reason == DegradeNone {
		return
	}
	m.Counter(MetricDegraded).Inc()
	m.Counter(fmt.Sprintf(MetricDegraded+`{reason=%q}`, string(reason))).Inc()
}
