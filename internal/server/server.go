// Package server is the network-facing layer of the pipeline: an
// HTTP/JSON analysis service composing the existing layers — the compile
// cache, the batch pool, guard deadlines/cancellation, and obs metrics —
// and hardening them for sustained load. The robustness contract, proved
// by the seeded fault campaign in this package's tests:
//
//   - bounded admission: at most MaxInFlight requests execute and at most
//     QueueDepth wait; everything beyond that is shed with 429 and a
//     Retry-After hint, never buffered unboundedly;
//   - per-request deadlines: the server's MaxTimeout is a hard ceiling
//     over client-requested budgets, threaded into guard checkpoints so a
//     deadline lands as a sound partial result, not a hang;
//   - panic isolation: a poisoned program surfaces as a structured error
//     response via the *RunError boundary and never takes down the
//     process; consecutive quarantines trip a circuit breaker that flips
//     /readyz so a balancer stops routing here;
//   - graceful drain: BeginDrain/Drain stop admission, flip readiness,
//     let in-flight runs finish within a budget, then force-cancel so
//     they seal sound partial results.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"determinacy"
	"determinacy/internal/batch"
	"determinacy/internal/cluster"
	"determinacy/internal/obs"
	"determinacy/internal/server/sched"
)

// Fixed request limits. No caller needs another value, so they are
// constants rather than Config fields. The compile cache likewise keeps
// progcache's default capacity of 128 programs, which perfbench serve
// sizes its program pool against.
const (
	// maxRuns caps a request's multi-seed merge width.
	maxRuns = 16
	// maxBatchPrograms caps /v1/batch fan-out.
	maxBatchPrograms = 128
	// breakerThreshold is the consecutive-quarantine count that trips
	// readiness. A later successful analysis closes the breaker.
	breakerThreshold = 5
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing analysis requests
	// (0 = GOMAXPROCS via batch.New's convention: the pool's width).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot
	// (0 = 2×MaxInFlight). Requests beyond the queue are shed with 429.
	QueueDepth int
	// MaxBodyBytes bounds the request body (0 = 4 MiB). Oversized bodies
	// get 413 before any parsing happens; the parser's own MaxDepth guard
	// bounds what a maximally nested body within the limit can cost.
	MaxBodyBytes int64
	// DefaultTimeout applies when a request names no budget (0 = 10s);
	// MaxTimeout is the server-enforced ceiling over client-requested
	// budgets (0 = 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Metrics receives every server/pool/cache series (nil = fresh
	// registry, readable via /metrics either way).
	Metrics *obs.Metrics
	// FlightEntries bounds the flight recorder's request-summary ring
	// served at /debug/statusz (0 = obs.DefaultFlightEntries).
	FlightEntries int
	// DisableTracing turns off per-request event retention (each request
	// otherwise retains and streams up to obs.DefaultTraceEventCap
	// events): requests run with a nil Tracer (the zero-alloc path) and /debug/tracez has
	// nothing to serve. Flight-recorder summaries are still kept.
	DisableTracing bool
	// FactCache, when set, memoizes completed single-run analyses in the
	// on-disk fact DB (L2 under the compile cache's L1). Warm hits serve
	// byte-identical responses; partial/degraded/errored runs never
	// populate it, so cached facts are always from clean completions.
	FactCache *determinacy.FactCache
	// Deprecated: ignored; there is one admission scheduler.
	SchedPolicy string
	// Tenants configures per-tenant weights, token-bucket quotas and queue
	// caps (cmd/detserve -tenants). The zero Table pools every request as
	// one tenant at weight 1: first come, first served.
	Tenants sched.Table
	// StreamHeartbeat is the keepalive interval for ?stream= responses:
	// while an analysis is running, the server emits a heartbeat line
	// (NDJSON {"type":"heartbeat"} or an SSE comment) so idle-timeout
	// proxies keep the connection open (0 = 15s, negative = disabled).
	StreamHeartbeat time.Duration
	// Cluster, when set, makes this node part of a sharded fleet:
	// non-streaming /v1/analyze requests whose content-hash owner is a
	// healthy remote peer are forwarded there. Every peer failure mode
	// degrades to local analysis against this node's own caches.
	Cluster *cluster.Router
	// DrainTimeout is the graceful-drain budget: how long Drain (and the
	// SIGTERM path in cmd/detserve) waits for in-flight runs before
	// force-cancelling them into sound partials (0 = 10s). Reported on
	// /healthz as drain_timeout_ms.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = batch.New(0).Workers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxInFlight
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.FlightEntries <= 0 {
		c.FlightEntries = obs.DefaultFlightEntries
	}
	if c.StreamHeartbeat == 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is the analysis service. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	cache   *determinacy.Cache
	pool    *batch.Pool
	start   time.Time

	// sched is the admission layer: it owns the execution slots, the
	// bounded queues, and every fairness and quota decision.
	sched *sched.Scheduler

	// wg tracks admitted requests so Drain can wait for them.
	wg sync.WaitGroup

	// draining flips once; baseCtx is the force-cancel parent of every run
	// context. The scheduler refuses admission once BeginDrain runs.
	draining   atomic.Bool
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// consecQuarantine and breakerOpen implement the readiness circuit
	// breaker.
	consecQuarantine atomic.Int64
	breakerOpen      atomic.Bool

	// Handles resolved once so hot paths skip registry lookups. The
	// admission series (server_inflight, server_queue_depth,
	// server_shed_total) are owned by the scheduler. Latency and
	// queue-wait histograms are per route (satellite: {route=...} labels
	// distinguish /v1/analyze from /v1/batch).
	gDraining, gBreaker     *obs.Gauge
	cRequests, cQuarantined *obs.Counter
	hLatency, hQueueWait    map[string]*obs.Histogram

	// flight retains the last FlightEntries request summaries for
	// /debug/statusz and /debug/tracez.
	flight *obs.FlightRecorder

	// cluster is the peer router when this node is part of a sharded
	// fleet (nil for a single node — every cluster code path gates on it).
	cluster *cluster.Router

	mux http.Handler
}

// Served routes, also the {route=...} label values.
const (
	routeAnalyze = "/v1/analyze"
	routeBatch   = "/v1/batch"
)

// latencyBuckets suit request wall times: 1ms up to 30s.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// phaseBuckets suit pipeline phases, which bottom out in microseconds.
var phaseBuckets = []float64{0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// routedHistograms creates one histogram per route under the given base
// name.
func routedHistograms(m *obs.Metrics, base string, buckets []float64) map[string]*obs.Histogram {
	out := make(map[string]*obs.Histogram, 2)
	for _, route := range []string{routeAnalyze, routeBatch} {
		out[route] = m.Histogram(fmt.Sprintf("%s{route=%q}", base, route), buckets...)
	}
	return out
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := cfg.Metrics
	scheduler, err := sched.New(sched.Config{
		Slots:         cfg.MaxInFlight,
		QueueDepth:    cfg.QueueDepth,
		Tenants:       cfg.Tenants,
		MaxRetryAfter: cfg.MaxTimeout,
		Metrics:       m,
	})
	if err != nil {
		panic(err)
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   determinacy.NewCache(0).WithMetrics(m),
		pool:    batch.New(0).WithMetrics(m),
		start:   time.Now(),
		sched:   scheduler,
		flight:  obs.NewFlightRecorder(cfg.FlightEntries),

		gDraining:    m.Gauge("server_draining"),
		gBreaker:     m.Gauge("server_breaker_open"),
		cRequests:    m.Counter("server_requests_total"),
		cQuarantined: m.Counter("server_quarantined_requests_total"),
		hLatency:     routedHistograms(m, "server_request_seconds", latencyBuckets),
		hQueueWait:   routedHistograms(m, "server_queue_wait_seconds", latencyBuckets),
		cluster:      cfg.Cluster,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	m.Gauge("server_max_inflight").Set(float64(cfg.MaxInFlight))
	m.Gauge("server_max_queue_depth").Set(float64(cfg.QueueDepth))
	m.Help("server_request_seconds", "Request wall time by route, from admission until the response is built, facts included; writing it to the client is not counted.")
	m.Help("server_queue_wait_seconds", "Admission-queue wait by route.")
	m.Help("server_phase_seconds", "Per-request pipeline-phase latency, derived from trace spans.")
	m.Help("server_requests_total", "Requests received, before admission.")
	m.Help("server_shed_total", "Requests shed with 429 by the admission scheduler.")
	m.Help("server_quarantined_requests_total", "Requests whose analysis panicked and was quarantined.")
	s.mux = s.routes()
	return s
}

// Handler is the service's HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (also served at /metrics).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// acquire admits a request through the scheduler: an execution slot
// immediately if one is free and nobody waits, else a bounded queue wait,
// else a typed refusal (*sched.ShedError, sched.ErrDraining, or the
// context's error). hWait is the route's queue-wait histogram; it observes exactly
// the requests that actually waited, as the pre-scheduler path did. Every
// admitted request must release(req).
func (s *Server) acquire(ctx context.Context, req *sched.Request, hWait *obs.Histogram) error {
	err := s.sched.Acquire(ctx, req)
	if req.Queued {
		hWait.Observe(req.Wait.Seconds())
	}
	return err
}

func (s *Server) release(req *sched.Request) {
	s.sched.Release(req)
}

// retryAfter estimates when a shed client should try again: the pool's
// longest observed job, clamped to [1s, MaxTimeout].
func (s *Server) retryAfter() time.Duration {
	d := s.pool.Snapshot().LongestJob
	if d < time.Second {
		d = time.Second
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// effTimeout resolves a client-requested budget (milliseconds, 0 = server
// default) under the server ceiling.
func (s *Server) effTimeout(clientMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if clientMS > 0 {
		d = time.Duration(clientMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// noteQuarantine records a request whose analysis panicked; enough in a
// row trips the readiness breaker.
func (s *Server) noteQuarantine() {
	s.cQuarantined.Inc()
	if s.consecQuarantine.Add(1) >= breakerThreshold &&
		s.breakerOpen.CompareAndSwap(false, true) {
		s.gBreaker.Set(1)
	}
}

// noteSuccess resets the quarantine streak and closes the breaker.
func (s *Server) noteSuccess() {
	s.consecQuarantine.Store(0)
	if s.breakerOpen.CompareAndSwap(true, false) {
		s.gBreaker.Set(0)
	}
}

// BeginDrain flips the server into draining mode: /readyz goes 503, new
// analysis requests are refused with 503, queued waiters are released
// with the same refusal. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.sched.BeginDrain()
		s.gDraining.Set(1)
	}
}

// Drain performs the graceful-shutdown sequence: BeginDrain, then wait up
// to Config.DrainTimeout for admitted requests to finish on their own;
// past the budget
// every in-flight run is force-cancelled — the guard checkpoints stop it
// within microseconds and it responds with a sound partial — and Drain
// waits for those responses. Returns true when everything finished within
// the budget, false when the force-cancel was needed.
func (s *Server) Drain() bool {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(s.cfg.DrainTimeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		s.baseCancel()
		<-done
		return false
	}
}
