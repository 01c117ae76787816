// Package sched is the server's admission layer: the Scheduler decides
// which waiting request gets the next execution slot, over the same fixed
// soundness machinery (guard deadlines, sealed partials, typed sheds) the
// rest of the pipeline already proves.
//
// Dispatch is weighted-fair queueing across tenants: each backlogged
// tenant receives execution slots in proportion to its configured weight,
// so one bulk-batch tenant cannot starve interactive users. With no tenant
// table every request resolves to the one shared "other" tenant at weight
// 1, and dispatch is first come, first served behind the global queue
// bound.
//
// Tenants may also carry token-bucket quotas and queue caps. Every request
// gets deadline-aware queue control: one whose remaining deadline can no
// longer cover the observed p50 service time is shed immediately with
// computed Retry-After guidance instead of timing out in queue and wasting
// a slot. Every shed is a typed *ShedError — the server renders it as a
// 429 with Retry-After, never a wrong or silently dropped answer.
package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"determinacy/internal/obs"
)

// TenantConfig is one tenant's admission policy. The JSON shape is the
// -tenants flag format.
type TenantConfig struct {
	// Weight is the tenant's WFQ share (<= 0 means 1). A weight-4 tenant
	// receives 4x the slots of a weight-1 tenant while both are backlogged.
	Weight float64 `json:"weight,omitempty"`
	// Rate is the token-bucket refill in requests/second (0 = no quota);
	// Burst is the bucket capacity (0 = max(Rate, 1)).
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
	// QueueCap bounds this tenant's queued requests (0 = the scheduler's
	// global queue depth).
	QueueCap int `json:"queue_cap,omitempty"`
}

// Table maps tenant IDs to their configs. The "*" entry, when present,
// configures unknown tenants; otherwise they get the zero TenantConfig
// (weight 1, no quota).
type Table struct {
	Tenants map[string]TenantConfig
	Default TenantConfig
}

// ParseTable decodes the -tenants JSON object; anything after it other
// than whitespace is an error:
//
//	{"pro": {"weight": 4, "rate": 50, "burst": 100},
//	 "bulk": {"weight": 1, "queue_cap": 8},
//	 "*": {"weight": 1}}
func ParseTable(data []byte) (Table, error) {
	var raw map[string]TenantConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return Table{}, fmt.Errorf("sched: tenants config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Table{}, errors.New("sched: tenants config: trailing data after the JSON object")
	}
	t := Table{Tenants: map[string]TenantConfig{}}
	for name, cfg := range raw {
		if cfg.Weight < 0 || cfg.Rate < 0 || cfg.Burst < 0 || cfg.QueueCap < 0 {
			return Table{}, fmt.Errorf("sched: tenant %q: weight, rate, burst and queue_cap must be non-negative", name)
		}
		if name == "*" {
			t.Default = cfg
			continue
		}
		t.Tenants[name] = cfg
	}
	return t, nil
}

// ParseTableFlag resolves the -tenants flag value: inline JSON, or
// @path to read the JSON from a file.
func ParseTableFlag(v string) (Table, error) {
	if v == "" {
		return Table{}, nil
	}
	data := []byte(v)
	if strings.HasPrefix(v, "@") {
		b, err := os.ReadFile(v[1:])
		if err != nil {
			return Table{}, fmt.Errorf("sched: tenants config: %w", err)
		}
		data = b
	}
	return ParseTable(data)
}

// config looks up a tenant, falling back to the table default.
func (t Table) config(name string) TenantConfig {
	if cfg, ok := t.Tenants[name]; ok {
		return cfg
	}
	return t.Default
}

// known reports whether the tenant is explicitly configured; unknown
// tenants share the "other" metric label so cardinality stays bounded by
// the config.
func (t Table) known(name string) bool {
	_, ok := t.Tenants[name]
	return ok
}

// Config tunes a scheduler. Slots and QueueDepth are required (>0).
type Config struct {
	// Slots bounds concurrently executing requests; QueueDepth bounds
	// requests waiting for a slot across all tenants.
	Slots      int
	QueueDepth int
	// Tenants configures per-tenant weights, quotas and caps.
	Tenants Table
	// MaxRetryAfter clamps computed Retry-After guidance (0 = 30s).
	MaxRetryAfter time.Duration
	// Metrics receives scheduler series; nil disables publication.
	Metrics *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	return c
}

// Request is one admission attempt. The caller fills Tenant and Deadline;
// the scheduler fills the accounting fields during Acquire.
type Request struct {
	Tenant string
	// Deadline is the request's effective completion deadline; the zero
	// time disables deadline-aware shedding for this request.
	Deadline time.Time

	// Queued and Wait report whether (and how long) the request waited in
	// the admission queue; valid after Acquire returns.
	Queued bool
	Wait   time.Duration

	// granted stamps slot acquisition so Release can observe service time.
	granted time.Time
	// tenant is the scheduler-internal tenant state, set by Acquire.
	tenant *tenantState
}

// Shed reasons carried by ShedError and the sched_sheds_total{reason}
// counter.
const (
	ReasonQueueFull       = "queue-full"
	ReasonTenantQueueFull = "tenant-queue-full"
	ReasonQuota           = "quota"
	ReasonDeadline        = "deadline-unmeetable"
)

// ShedError is a typed admission refusal: the request was not (and will
// not be) executed, and the client should retry after RetryAfter.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: request shed (%s); retry after %v", e.Reason, e.RetryAfter)
}

// ScaleRetryAfter stretches the refusal's guidance by factor, clamped to
// max (0 = no clamp). The server applies it when the cluster is degraded:
// with owning peers down this node absorbs their share of the keyspace,
// so shed clients should back off proportionally instead of hammering the
// survivors. factor <= 1 is a no-op.
func (e *ShedError) ScaleRetryAfter(factor float64, max time.Duration) {
	if factor <= 1 || e.RetryAfter <= 0 {
		return
	}
	d := time.Duration(float64(e.RetryAfter) * factor)
	if max > 0 && d > max {
		d = max
	}
	e.RetryAfter = d
}

// ErrDraining refuses admission while the server drains.
var ErrDraining = errors.New("sched: draining, not accepting new work")

// Snapshot is a point-in-time scheduler view, the /debug/statusz
// "scheduler" payload.
type Snapshot struct {
	InFlight int              `json:"inflight"`
	Queued   int              `json:"queued"`
	P50MS    float64          `json:"p50_service_ms,omitempty"`
	Tenants  []TenantSnapshot `json:"tenants,omitempty"`
}

// TenantSnapshot is one tenant's live admission state.
type TenantSnapshot struct {
	Tenant   string  `json:"tenant"`
	Weight   float64 `json:"weight"`
	Queued   int     `json:"queued"`
	InFlight int     `json:"inflight"`
	Admitted int64   `json:"admitted"`
	Shed     int64   `json:"shed"`
}

// New builds a scheduler; Slots and QueueDepth must be positive.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Slots <= 0 || cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("sched: Slots and QueueDepth must be positive (got %d, %d)", cfg.Slots, cfg.QueueDepth)
	}
	return newScheduler(cfg.withDefaults()), nil
}
