package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"determinacy/internal/obs"
)

// otherTenant is the shared bucket for tenants absent from the config
// table: they pool one state (and one metric label), so adversarial or
// misconfigured tenant IDs cannot grow scheduler memory or metric
// cardinality past the configured set plus one.
const otherTenant = "other"

// tenantState is one tenant's live admission state. The counters are
// atomic so the lock-free fifo policy shares the type with the
// mutex-guarded queue core; the queueing fields (queue, vfinish, tokens)
// are owned by the core and guarded by its mutex.
type tenantState struct {
	name   string
	cfg    TenantConfig
	weight float64

	queuedN   atomic.Int64
	inflightN atomic.Int64
	admitted  atomic.Int64
	shed      atomic.Int64

	// Queue core state, guarded by core.mu.
	queue      []*waiter
	vfinish    float64
	tokens     float64
	lastRefill time.Time

	// gQueued caches the tenant's sched_queue_depth gauge handle.
	gQueued *obs.Gauge
}

func (t *tenantState) noteAdmit() { t.inflightN.Add(1); t.admitted.Add(1) }
func (t *tenantState) noteDone()  { t.inflightN.Add(-1) }
func (t *tenantState) noteShed()  { t.shed.Add(1) }

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

// tenantBook lazily materializes tenantState per configured tenant (plus
// the shared "other" state) for all policies.
type tenantBook struct {
	mu  sync.Mutex
	cfg Config
	m   map[string]*tenantState
}

func newTenantBook(cfg Config) *tenantBook {
	return &tenantBook{cfg: cfg, m: map[string]*tenantState{}}
}

// get resolves a tenant ID to its state: configured tenants get their own,
// everyone else shares "other" under the table's default config.
func (b *tenantBook) get(name string) *tenantState {
	if !b.cfg.Tenants.known(name) {
		name = otherTenant
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.m[name]
	if !ok {
		cfg := b.cfg.Tenants.Default
		if name != otherTenant {
			cfg = b.cfg.Tenants.config(name)
		}
		t = newTenantState(name, cfg)
		b.m[name] = t
	}
	return t
}

func (b *tenantBook) snapshot() []TenantSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(b.m))
	for _, t := range b.m {
		out = append(out, TenantSnapshot{
			Tenant:   t.name,
			Weight:   t.weight,
			Queued:   int(t.queuedN.Load()),
			InFlight: int(t.inflightN.Load()),
			Admitted: t.admitted.Load(),
			Shed:     t.shed.Load(),
		})
	}
	sortTenantSnapshots(out)
	return out
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
// scheduler mutex; the copy-and-select over <=64 entries is negligible
// next to an analysis run.
func (w *svcWindow) p50() time.Duration {
	if w.n == 0 {
		return 0
	}
	tmp := make([]time.Duration, w.n)
	copy(tmp, w.buf[:w.n])
	// Insertion sort: n <= 64.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	return tmp[len(tmp)/2]
}
