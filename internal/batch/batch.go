// Package batch is a bounded worker-pool engine for fanning independent
// analysis jobs across goroutines. The paper's two case studies (Table 1
// jQuery specialization, §5.2 eval elimination) and multi-seed fact
// gathering (§7) are embarrassingly parallel batches of independent
// analyses; this package runs them concurrently while guaranteeing output
// byte-identical to the serial path.
//
// The determinism contract: Map places each job's result at its submission
// index and callers fold results in submission order, so for deterministic
// jobs the merged outcome is independent of worker count and goroutine
// scheduling. The differential suite in this package's tests asserts the
// contract end to end against the experiment harness.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/obs"
)

// Pool runs batches of jobs on a bounded set of worker goroutines. A Pool
// is cheap (it holds no goroutines between batches — workers are spawned
// per Map call and exit when the batch drains) and safe for concurrent use.
type Pool struct {
	workers int
	metrics *obs.Metrics
	pubMu   sync.Mutex // serializes publish so delta accounting stays exact
	// published is the snapshot already mirrored into the registry; publish
	// adds only the delta, so several pools can share one registry and
	// their counters accumulate instead of clobbering.
	published Snapshot

	jobs        atomic.Int64
	batches     atomic.Int64
	quarantined atomic.Int64 // jobs that panicked and were quarantined
	cancelled   atomic.Int64 // jobs skipped because the batch ctx was cancelled
	busyNS      atomic.Int64
	wallNS      atomic.Int64
	longNS      atomic.Int64 // longest single job observed
}

// New creates a pool with the given worker bound; non-positive means
// GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// WithMetrics attaches a metrics registry; the pool then maintains
// batch_pool_* counters and gauges (jobs, batches, busy/wall time,
// utilization, longest job) live. Returns the pool for chaining.
func (p *Pool) WithMetrics(m *obs.Metrics) *Pool {
	p.metrics = m
	if m != nil {
		m.Gauge("batch_pool_workers").Set(float64(p.workers))
	}
	return p
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Snapshot is a point-in-time view of cumulative pool activity.
type Snapshot struct {
	Jobs, Batches int64
	// Quarantined counts jobs that panicked (recovered into their result
	// slot); Cancelled counts jobs skipped after batch-ctx cancellation.
	Quarantined, Cancelled int64
	// Busy is the summed duration of all jobs; Wall is the summed
	// wall-clock duration of all Map calls.
	Busy, Wall time.Duration
	// LongestJob is the longest single job observed — the lower bound on
	// any batch's wall-clock time regardless of worker count.
	LongestJob time.Duration
}

// Utilization is Busy / (Wall × workers): the fraction of available worker
// time spent executing jobs.
func (s Snapshot) utilization(workers int) float64 {
	if s.Wall <= 0 || workers <= 0 {
		return 0
	}
	return float64(s.Busy) / (float64(s.Wall) * float64(workers))
}

// Snapshot reports cumulative pool activity.
func (p *Pool) Snapshot() Snapshot {
	return Snapshot{
		Jobs:        p.jobs.Load(),
		Batches:     p.batches.Load(),
		Quarantined: p.quarantined.Load(),
		Cancelled:   p.cancelled.Load(),
		Busy:        time.Duration(p.busyNS.Load()),
		Wall:        time.Duration(p.wallNS.Load()),
		LongestJob:  time.Duration(p.longNS.Load()),
	}
}

// Utilization reports cumulative busy time over available worker time.
func (p *Pool) Utilization() float64 { return p.Snapshot().utilization(p.workers) }

// Quarantine records a job that produced no result: a panic (converted to
// a *guard.RunError and wrapped with the job index) or the batch
// context's cancellation error. The result slot at Index holds T's zero
// value.
type Quarantine struct {
	Index int
	Err   error
}

// Map runs job(0..n-1) on the pool's workers and returns the n results in
// submission order. Jobs are claimed from a shared counter, so workers stay
// busy under uneven job costs, but the result slice layout — and therefore
// everything a caller derives from it by in-order folding — is identical to
// a serial loop. A panicking job no longer poisons the batch: the pool
// quarantines it, finishes every other job, and only after the batch has
// fully drained re-panics the lowest-index quarantined error on the
// calling goroutine. Callers that want quarantines as values use MapCtx.
func Map[T any](p *Pool, n int, job func(i int) T) []T {
	out, qs := MapCtx(context.Background(), p, n, job)
	if len(qs) > 0 {
		panic(qs[0].Err)
	}
	return out
}

// MapCtx is Map with cooperative cancellation and panic quarantine. A
// panicking job is recovered into a *guard.RunError recorded in the
// returned quarantine list (sorted by job index) while every other job
// still runs; its result slot keeps T's zero value. When ctx is cancelled
// mid-batch, in-flight jobs finish, workers stop starting new ones, and
// every unstarted job gets a ctx-wrapped quarantine entry — the pool
// drains cleanly without leaking queued jobs or goroutines. Completed
// jobs' results land at their submission index, preserving the
// determinism contract for the jobs that did run.
func MapCtx[T any](ctx context.Context, p *Pool, n int, job func(i int) T) ([]T, []Quarantine) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	qerr := make([]error, n)
	workers := p.workers
	if workers > n {
		workers = n
	}

	start := time.Now()
	var busy atomic.Int64

	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				re, ok := r.(*guard.RunError)
				if !ok {
					re = guard.New("batch", r)
				}
				qerr[i] = fmt.Errorf("batch: job %d panicked: %w", i, re)
			}
		}()
		if faultinject.Armed() {
			faultinject.Hit(faultinject.SiteBatchJob)
		}
		t0 := time.Now()
		out[i] = job(i)
		d := int64(time.Since(t0))
		busy.Add(d)
		atomicMax(&p.longNS, d)
	}

	oneJob := func(i int) {
		if err := ctx.Err(); err != nil {
			qerr[i] = fmt.Errorf("batch: job %d not run: %w", i, err)
			return
		}
		runOne(i)
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			oneJob(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					oneJob(i)
				}
			}()
		}
		wg.Wait()
	}

	var qs []Quarantine
	var quarantined, cancelled int64
	for i, err := range qerr {
		if err == nil {
			continue
		}
		qs = append(qs, Quarantine{Index: i, Err: err})
		var re *guard.RunError
		if errors.As(err, &re) {
			quarantined++
		} else {
			cancelled++
		}
	}

	wall := time.Since(start)
	p.jobs.Add(int64(n))
	p.batches.Add(1)
	p.quarantined.Add(quarantined)
	p.cancelled.Add(cancelled)
	p.busyNS.Add(busy.Load())
	p.wallNS.Add(int64(wall))
	p.publish()
	return out, qs
}

// publish mirrors cumulative activity into the attached registry. The
// pool-wide mutex serializes concurrent batch completions so the raise-to-
// cumulative-total counter updates stay exact.
func (p *Pool) publish() {
	m := p.metrics
	if m == nil {
		return
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	s := p.Snapshot()
	m.Counter("batch_pool_jobs_total").Add(s.Jobs - p.published.Jobs)
	m.Counter("batch_pool_batches_total").Add(s.Batches - p.published.Batches)
	m.Counter("batch_pool_quarantined_total").Add(s.Quarantined - p.published.Quarantined)
	m.Counter("batch_pool_cancelled_jobs_total").Add(s.Cancelled - p.published.Cancelled)
	m.Counter("batch_pool_busy_nanoseconds_total").Add(int64(s.Busy - p.published.Busy))
	m.Counter("batch_pool_wall_nanoseconds_total").Add(int64(s.Wall - p.published.Wall))
	m.Gauge("batch_pool_workers").Set(float64(p.workers))
	m.Gauge("batch_pool_utilization").Set(s.utilization(p.workers))
	m.Gauge("batch_pool_longest_job_seconds").SetMax(s.LongestJob.Seconds())
	p.published = s
}

// atomicMax stores v into p if it exceeds the current value.
func atomicMax(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if cur >= v || p.CompareAndSwap(cur, v) {
			return
		}
	}
}
