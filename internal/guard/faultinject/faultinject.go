// Package faultinject is a deterministic, seeded fault-injection harness
// for the guard layer. A Plan armed via Arm fires exactly one fault — a
// panic, a context cancellation, or a simulated deadline expiry — at the
// N-th execution of an instrumented site. The sites sit on the
// interpreters' periodic checkpoint paths and a few structurally
// interesting spots (heap flush, call dispatch, batch job start), so the
// disarmed cost is one atomic pointer load per checkpoint. The campaign
// test in internal/guard replays thousands of seeded plans under -race to
// prove every recovery path in the pipeline.
package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Instrumented sites. Plans may restrict their trigger to one of these.
const (
	SiteCoreStep   = "core.step"      // instrumented-interpreter step checkpoint
	SiteCoreFlush  = "core.flush"     // heap flush entry (§4 flush semantics)
	SiteCoreCall   = "core.call"      // instrumented call dispatch
	SiteInterpStep = "interp.step"    // tree-interpreter step checkpoint
	SiteSolverProp = "pointsto.solve" // points-to propagation checkpoint
	SiteBatchJob   = "batch.job"      // worker-pool job start
	// Server sites, on cmd/detserve's request path. Admit sits outside the
	// per-request guard boundary (a panic there exercises the HTTP-layer
	// recovery middleware); Request sits inside it, mid-analysis.
	SiteServerAdmit   = "server.admit"
	SiteServerRequest = "server.request"
	// Scheduler sites, on the admission scheduler's queue path. Enqueue
	// fires as a request enters admission (before any slot is held);
	// Dispatch fires on the admitted goroutine the moment it is granted an
	// execution slot — schedulers release the slot before re-panicking so
	// an injected dispatch panic can never leak pool capacity.
	SiteSchedEnqueue  = "sched.enqueue"
	SiteSchedDispatch = "sched.dispatch"
	// Cluster site, on the peer router's forward path: it fires as a
	// request is about to be relayed to its owning peer, inside the
	// router's recovery boundary, so an injected panic degrades to local
	// serving.
	SiteClusterForward = "cluster.forward"
)

// Action is the fault a plan injects when its trigger count is reached.
type Action int

const (
	// Panic panics with an Injected value at the trigger site, exercising
	// the guard.Boundary recovery paths.
	Panic Action = iota
	// Cancel invokes the plan's OnCancel func (typically the run context's
	// CancelFunc), exercising cooperative cancellation.
	Cancel
	// Expire makes guard.CheckInterrupt report an expired deadline
	// (guard.ErrDeadline) from the trigger onward, without racing the real
	// clock.
	Expire
)

func (a Action) String() string {
	switch a {
	case Panic:
		return "panic"
	case Cancel:
		return "cancel"
	case Expire:
		return "expire"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Injected is the panic value used by the Panic action. It implements
// error so recovery layers surface it through *guard.RunError unwrapping.
type Injected struct {
	Site string
	Hit  int64
}

func (e Injected) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", e.Site, e.Hit)
}

// Plan arms one fault. After the fault fires the plan stays installed but
// inert; Disarm removes it. The zero Site matches every site.
type Plan struct {
	// Site restricts the trigger to one instrumented site ("" = any).
	Site string
	// After fires the fault on the After-th matching hit (minimum 1).
	After int64
	// Action selects the injected fault.
	Action Action
	// OnCancel is invoked by the Cancel action.
	OnCancel context.CancelFunc

	hits  atomic.Int64
	fired atomic.Bool
}

// Hits reports how many matching site executions the plan has observed.
func (p *Plan) Hits() int64 { return p.hits.Load() }

// Fired reports whether the fault has been injected.
func (p *Plan) Fired() bool { return p.fired.Load() }

var current atomic.Pointer[Plan]

// Arm installs the plan process-wide. Only test harnesses arm plans; the
// production path never does and pays one atomic load per checkpoint.
func Arm(p *Plan) {
	if p != nil && p.After < 1 {
		p.After = 1
	}
	current.Store(p)
}

// Disarm removes any armed plan.
func Disarm() { current.Store(nil) }

// Armed reports whether a plan is installed. Checkpoint sites guard their
// Hit call with it so the disarmed fast path stays branch-only.
func Armed() bool { return current.Load() != nil }

// Hit marks execution reaching an instrumented site, firing the armed
// plan's fault once its trigger count is reached. Safe for concurrent use
// from pool workers; exactly one hit fires the fault.
func Hit(site string) {
	if p := current.Load(); p != nil {
		p.hit(site)
	}
}

func (p *Plan) hit(site string) {
	if p.Site != "" && p.Site != site {
		return
	}
	n := p.hits.Add(1)
	if n < p.After || !p.fired.CompareAndSwap(false, true) {
		return
	}
	switch p.Action {
	case Panic:
		panic(Injected{Site: site, Hit: n})
	case Cancel:
		if p.OnCancel != nil {
			p.OnCancel()
		}
	case Expire:
		// Nothing to do here: Expired reports the fired state to the
		// deadline check.
	}
}

// Expired reports whether an armed Expire plan has fired. The guard
// deadline check consults it so campaigns can expire deadlines at an exact
// step count instead of racing the wall clock.
func Expired() bool {
	p := current.Load()
	return p != nil && p.Action == Expire && p.fired.Load()
}
