package sched

import (
	"time"

	"determinacy/internal/obs"
)

// otherTenant is the shared bucket for tenants absent from the config
// table: they pool one state (and one metric label), so adversarial or
// misconfigured tenant IDs cannot grow scheduler memory or metric
// cardinality past the configured set plus one.
const otherTenant = "other"

// tenantState is one tenant's live admission state: its counters, its
// queue, its virtual finish time and its token bucket, all guarded by the
// owning Scheduler's mutex.
type tenantState struct {
	name   string
	cfg    TenantConfig
	weight float64

	queuedN, inflightN int
	admitted, shed     int64

	queue      []*waiter
	vfinish    float64
	tokens     float64
	lastRefill time.Time

	// gQueued caches the tenant's sched_queue_depth gauge handle.
	gQueued *obs.Gauge
}

func (t *tenantState) noteAdmit() { t.inflightN++; t.admitted++ }
func (t *tenantState) noteDone()  { t.inflightN-- }
func (t *tenantState) noteShed()  { t.shed++ }

func newTenantState(name string, cfg TenantConfig) *tenantState {
	t := &tenantState{name: name, cfg: cfg, weight: cfg.Weight, lastRefill: time.Now()}
	if t.weight <= 0 {
		t.weight = 1
	}
	if cfg.Rate > 0 {
		t.tokens = cfg.burst()
	}
	return t
}

// burst resolves the token-bucket capacity: Burst, defaulting to
// max(Rate, 1) so a configured rate always admits at least one request.
func (c TenantConfig) burst() float64 {
	if c.Burst > 0 {
		return c.Burst
	}
	if c.Rate > 1 {
		return c.Rate
	}
	return 1
}

// takeToken refills by elapsed wall time and consumes one token; callers
// hold the owning scheduler's mutex. ok=false means the quota is
// exhausted and wait says how long until a token accrues.
func (t *tenantState) takeToken(now time.Time) (ok bool, wait time.Duration) {
	if t.cfg.Rate <= 0 {
		return true, 0
	}
	elapsed := now.Sub(t.lastRefill).Seconds()
	if elapsed > 0 {
		t.tokens += elapsed * t.cfg.Rate
		if b := t.cfg.burst(); t.tokens > b {
			t.tokens = b
		}
		t.lastRefill = now
	}
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	return false, time.Duration((1 - t.tokens) / t.cfg.Rate * float64(time.Second))
}

// svcWindow is a bounded ring of observed service times; p50 drives
// deadline-aware shedding and Retry-After guidance.
type svcWindow struct {
	buf  [64]time.Duration
	n    int // filled entries
	next int
}

func (w *svcWindow) observe(d time.Duration) {
	if d < 0 {
		return
	}
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// p50 reports the window's median (0 when empty). Callers hold the
// scheduler mutex. It runs on every admission and every dispatch, so it
// sorts a stack copy of the ring instead of allocating.
func (w *svcWindow) p50() time.Duration {
	if w.n == 0 {
		return 0
	}
	tmp := w.buf
	s := tmp[:w.n]
	// Insertion sort: n <= 64.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
