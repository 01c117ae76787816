package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"determinacy/internal/guard/faultinject"
	"determinacy/internal/obs"
)

// waiter states, transitioned under Scheduler.mu.
const (
	stQueued = iota
	stGranted
	stShed // shed or drained after queueing; ready carries the error
	stCancelled
)

// waiter is one queued admission attempt.
type waiter struct {
	req *Request
	t   *tenantState
	enq time.Time
	// vfinish is the waiter's WFQ virtual finish time.
	vfinish float64
	// ready receives exactly one grant (nil) or refusal; buffered so
	// dispatch never blocks on an abandoning waiter.
	ready chan error
	state int
}

// Scheduler admits requests to execution slots: bounded per-tenant
// queues, token-bucket quotas, deadline-aware shedding with computed
// Retry-After guidance, and weighted-fair dispatch order. It is safe for
// concurrent use; every successful Acquire must be paired with exactly one
// Release.
//
// The order is start-time-fair virtual-clock queueing: each queued
// request gets a virtual finish time vfinish = max(vtime, tenant.vfinish)
// + 1/weight, and dispatch always picks the earliest-finishing head.
// Charging one virtual unit per request means that while several tenants
// stay backlogged, their completed-request counts converge to the ratio
// of their weights; the max() term forgives idle periods, so a tenant
// returning after quiet time starts at the current clock instead of a
// banked advantage. With no tenant table every request shares the one
// "other" tenant, so finish times rise strictly with arrival and dispatch
// is first come, first served.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	free     int
	inflight int
	queued   int
	draining bool
	// tenants holds each configured tenant's state, created on first use,
	// plus the shared "other" state.
	tenants map[string]*tenantState
	// active tracks tenants with non-empty queues.
	active map[*tenantState]bool
	// vtime is the virtual clock.
	vtime float64
	svc   svcWindow
	rng   *rand.Rand

	m                  *obs.Metrics
	gInFlight, gQueued *obs.Gauge
	cShed              *obs.Counter
}

func newScheduler(cfg Config) *Scheduler {
	c := &Scheduler{
		cfg:     cfg,
		free:    cfg.Slots,
		tenants: map[string]*tenantState{},
		active:  map[*tenantState]bool{},
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		m:       cfg.Metrics,
	}
	if m := cfg.Metrics; m != nil {
		c.gInFlight = m.Gauge("server_inflight")
		c.gQueued = m.Gauge("server_queue_depth")
		c.cShed = m.Counter("server_shed_total")
		m.Help("sched_queue_depth", "Queued admission waiters by tenant.")
		m.Help("sched_sheds_total", "Requests shed by the admission scheduler, by reason.")
	}
	return c
}

// Acquire blocks until req is granted a slot or refused: a *ShedError
// (bounded queue, quota, or unmeetable deadline), ErrDraining, or the
// context's error when the caller went away while queued.
func (c *Scheduler) Acquire(ctx context.Context, req *Request) error {
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteSchedEnqueue)
	}
	now := time.Now()

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return ErrDraining
	}
	t := c.tenantLocked(req.Tenant)
	req.tenant = t
	req.Tenant = t.name // effective identity: unknown tenants pool as "other"
	if ok, wait := t.takeToken(now); !ok {
		err := c.shedLocked(t, ReasonQuota, wait)
		c.mu.Unlock()
		return err
	}
	// Deadline-aware queue control: a request whose remaining budget can
	// no longer cover the observed p50 service time would only burn a
	// queue place and a slot to seal a near-empty partial at its deadline;
	// shed it now with live Retry-After guidance instead.
	if p50 := c.svc.p50(); p50 > 0 && !req.Deadline.IsZero() && now.Add(p50).After(req.Deadline) {
		err := c.shedLocked(t, ReasonDeadline, c.estimateRetryLocked(p50))
		c.mu.Unlock()
		return err
	}
	if c.free > 0 && c.queued == 0 {
		c.free--
		c.inflight++
		t.noteAdmit()
		req.granted = now
		// Charge the uncontended grant too, so fairness state stays
		// consistent across idle periods.
		c.vtime = c.chargeLocked(t)
		c.setInFlightLocked()
		c.mu.Unlock()
		return c.fireDispatch(req)
	}
	// Bounded queueing: global depth, then the tenant's own cap.
	switch {
	case c.queued >= c.cfg.QueueDepth:
		err := c.shedLocked(t, ReasonQueueFull, 0)
		c.mu.Unlock()
		return err
	case t.queuedN >= c.tenantCap(t):
		err := c.shedLocked(t, ReasonTenantQueueFull, 0)
		c.mu.Unlock()
		return err
	}
	w := &waiter{req: req, t: t, enq: now, ready: make(chan error, 1)}
	c.pushLocked(w)
	c.queued++
	t.queuedN++
	c.setQueueGaugesLocked(t)
	c.mu.Unlock()

	select {
	case err := <-w.ready:
		req.Queued = true
		req.Wait = time.Since(w.enq)
		if err != nil {
			return err
		}
		return c.fireDispatch(req)
	case <-ctx.Done():
		c.mu.Lock()
		if w.state == stQueued {
			w.state = stCancelled
			c.removeLocked(w)
			c.dequeueAccountingLocked(w)
			c.mu.Unlock()
			req.Queued = true
			req.Wait = time.Since(w.enq)
			return ctx.Err()
		}
		c.mu.Unlock()
		// Raced with dispatch or drain: consume the decision; a grant we
		// can no longer use goes straight back to the pool.
		err := <-w.ready
		req.Queued = true
		req.Wait = time.Since(w.enq)
		if err == nil {
			c.Release(req)
		}
		return ctx.Err()
	}
}

// fireDispatch marks the grant complete and fires the sched.dispatch
// fault site on the admitted goroutine. An injected panic releases the
// slot before unwinding so injected faults can never leak pool capacity.
func (c *Scheduler) fireDispatch(req *Request) error {
	if faultinject.Armed() {
		defer func() {
			if r := recover(); r != nil {
				c.Release(req)
				panic(r)
			}
		}()
		faultinject.Hit(faultinject.SiteSchedDispatch)
	}
	return nil
}

// Release returns req's slot and dispatches the next waiter.
func (c *Scheduler) Release(req *Request) {
	t := req.tenant
	c.mu.Lock()
	c.free++
	c.inflight--
	t.noteDone()
	if !req.granted.IsZero() {
		c.svc.observe(time.Since(req.granted))
	}
	c.setInFlightLocked()
	c.dispatchLocked()
	c.mu.Unlock()
}

// dispatchLocked grants free slots to queued waiters in fair order,
// shedding queued requests whose deadline became unmeetable while they
// waited (their slot goes to the next waiter instead of being wasted).
func (c *Scheduler) dispatchLocked() {
	for c.free > 0 {
		w := c.nextLocked()
		if w == nil {
			return
		}
		c.dequeueAccountingLocked(w)
		if p50 := c.svc.p50(); p50 > 0 && !w.req.Deadline.IsZero() && time.Now().Add(p50).After(w.req.Deadline) {
			w.state = stShed
			w.t.noteShed()
			c.countShedLocked(ReasonDeadline)
			w.ready <- &ShedError{Reason: ReasonDeadline, RetryAfter: c.estimateRetryLocked(p50)}
			continue
		}
		c.free--
		c.inflight++
		w.t.noteAdmit()
		w.req.granted = time.Now()
		w.state = stGranted
		c.setInFlightLocked()
		w.ready <- nil
	}
}

// BeginDrain refuses new admissions and fails every queued waiter with
// ErrDraining. Idempotent.
func (c *Scheduler) BeginDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	for {
		w := c.nextLocked()
		if w == nil {
			return
		}
		c.dequeueAccountingLocked(w)
		w.state = stShed
		w.ready <- ErrDraining
	}
}

// Snapshot reports live per-tenant queue state for /debug/statusz.
func (c *Scheduler) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		InFlight: c.inflight,
		Queued:   c.queued,
		P50MS:    float64(c.svc.p50().Microseconds()) / 1000,
		Tenants:  make([]TenantSnapshot, 0, len(c.tenants)),
	}
	for _, t := range c.tenants {
		snap.Tenants = append(snap.Tenants, TenantSnapshot{
			Tenant:   t.name,
			Weight:   t.weight,
			Queued:   t.queuedN,
			InFlight: t.inflightN,
			Admitted: t.admitted,
			Shed:     t.shed,
		})
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })
	return snap
}

// tenantLocked resolves a tenant ID to its state: configured tenants get
// their own, everyone else shares "other" under the table's default
// config.
func (c *Scheduler) tenantLocked(name string) *tenantState {
	if !c.cfg.Tenants.known(name) {
		name = otherTenant
	}
	t, ok := c.tenants[name]
	if !ok {
		cfg := c.cfg.Tenants.Default
		if name != otherTenant {
			cfg = c.cfg.Tenants.config(name)
		}
		t = newTenantState(name, cfg)
		c.tenants[name] = t
	}
	return t
}

// shedLocked accounts a refusal and builds its typed error. wait, when
// positive, is the reason-specific Retry-After (quota refill, deadline
// guidance); zero falls back to the live queue estimate.
func (c *Scheduler) shedLocked(t *tenantState, reason string, wait time.Duration) *ShedError {
	t.noteShed()
	c.countShedLocked(reason)
	if wait <= 0 {
		wait = c.estimateRetryLocked(c.svc.p50())
	}
	if wait > c.cfg.MaxRetryAfter {
		wait = c.cfg.MaxRetryAfter
	}
	return &ShedError{Reason: reason, RetryAfter: wait}
}

// estimateRetryLocked computes shed guidance from live queue depth and
// observed service time, plus jitter so a synchronized thundering herd of
// shed clients does not return in lockstep.
func (c *Scheduler) estimateRetryLocked(p50 time.Duration) time.Duration {
	if p50 <= 0 {
		p50 = time.Second
	}
	est := time.Duration(float64(p50) * (float64(c.queued)/float64(c.cfg.Slots) + 1))
	est += time.Duration(c.rng.Int63n(int64(p50)/2 + 1))
	if est > c.cfg.MaxRetryAfter {
		est = c.cfg.MaxRetryAfter
	}
	return est
}

func (c *Scheduler) tenantCap(t *tenantState) int {
	if t.cfg.QueueCap > 0 {
		return t.cfg.QueueCap
	}
	return c.cfg.QueueDepth
}

// dequeueAccountingLocked unwinds a waiter's queue-side counters and
// gauges (it left the queue: granted, shed, drained, or cancelled).
func (c *Scheduler) dequeueAccountingLocked(w *waiter) {
	c.queued--
	w.t.queuedN--
	c.setQueueGaugesLocked(w.t)
}

func (c *Scheduler) countShedLocked(reason string) {
	if c.m == nil {
		return
	}
	c.cShed.Inc()
	c.m.Counter(fmt.Sprintf("sched_sheds_total{reason=%q}", reason)).Inc()
}

func (c *Scheduler) setInFlightLocked() {
	if c.gInFlight != nil {
		c.gInFlight.Set(float64(c.inflight))
	}
}

func (c *Scheduler) setQueueGaugesLocked(t *tenantState) {
	if c.m == nil {
		return
	}
	c.gQueued.Set(float64(c.queued))
	if t.gQueued == nil {
		t.gQueued = c.m.Gauge(fmt.Sprintf("sched_queue_depth{tenant=%q}", t.name))
	}
	t.gQueued.Set(float64(t.queuedN))
}

// pushLocked enqueues w behind its tenant's earlier waiters, charging the
// tenant one virtual unit at its weight.
func (c *Scheduler) pushLocked(w *waiter) {
	t := w.t
	w.vfinish = c.chargeLocked(t)
	t.queue = append(t.queue, w)
	c.active[t] = true
}

// chargeLocked advances t's virtual finish time by one request at its
// weight and returns it.
func (c *Scheduler) chargeLocked(t *tenantState) float64 {
	base := c.vtime
	if t.vfinish > base {
		base = t.vfinish
	}
	t.vfinish = base + 1/t.weight
	return t.vfinish
}

// nextLocked pops the earliest-finishing queue head, nil when no tenant
// is backlogged.
func (c *Scheduler) nextLocked() *waiter {
	var best *tenantState
	for t := range c.active {
		if best == nil || t.queue[0].vfinish < best.queue[0].vfinish ||
			(t.queue[0].vfinish == best.queue[0].vfinish && t.name < best.name) {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	w := best.queue[0]
	copy(best.queue, best.queue[1:])
	best.queue[len(best.queue)-1] = nil
	best.queue = best.queue[:len(best.queue)-1]
	if len(best.queue) == 0 {
		delete(c.active, best)
	}
	if w.vfinish > c.vtime {
		c.vtime = w.vfinish
	}
	return w
}

// removeLocked deletes an abandoned waiter in place. Later vfinishes of
// the same tenant are left as charged: a cancelled request costs its
// tenant one virtual unit, which keeps cancellation from being a way to
// jump the fair queue.
func (c *Scheduler) removeLocked(w *waiter) {
	t := w.t
	for i, q := range t.queue {
		if q == w {
			copy(t.queue[i:], t.queue[i+1:])
			t.queue[len(t.queue)-1] = nil
			t.queue = t.queue[:len(t.queue)-1]
			break
		}
	}
	if len(t.queue) == 0 {
		delete(c.active, t)
	}
}
