package determinacy_test

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"determinacy"
)

// longSrc is long enough (hundreds of thousands of instrumented steps)
// that cooperative interrupt checkpoints fire many times mid-run.
const longSrc = `
	var acc = 0;
	var i = 0;
	while (i < 50000) { acc = acc + i; i = i + 1; }
	console.log(acc);
`

func TestDeadlineYieldsPartialResult(t *testing.T) {
	// A context deadline that expires mid-run: the loop takes on the order
	// of a second, the deadline fires within tens of milliseconds, and the
	// facts recorded before the stop survive.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := determinacy.AnalyzeContext(ctx, longSrc, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatalf("Analyze returned error %v, want a partial result", err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeDeadline {
		t.Fatalf("Partial=%v Degraded=%q, want partial/deadline", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, determinacy.ErrDeadline) || !errors.Is(res.Stopped, context.DeadlineExceeded) {
		t.Fatalf("Stopped = %v, want ErrDeadline wrapping context.DeadlineExceeded", res.Stopped)
	}
	if res.NumFacts() == 0 {
		t.Error("facts recorded before the deadline must survive")
	}
}

func TestExpiredDeadlineStopsBeforeExecuting(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := determinacy.AnalyzeContext(ctx, `var x = 1;`, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatalf("AnalyzeContext returned error %v, want a partial result", err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeDeadline {
		t.Fatalf("Partial=%v Degraded=%q, want partial/deadline even on a tiny program", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, determinacy.ErrDeadline) || !errors.Is(res.Stopped, context.DeadlineExceeded) {
		t.Fatalf("Stopped = %v, want ErrDeadline wrapping context.DeadlineExceeded", res.Stopped)
	}
}

func TestCancelYieldsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := determinacy.AnalyzeContext(ctx, longSrc, determinacy.Options{Out: io.Discard})
	if err != nil {
		t.Fatalf("AnalyzeContext returned error %v, want a partial result", err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeCancel {
		t.Fatalf("Partial=%v Degraded=%q, want partial/cancel", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, context.Canceled) {
		t.Fatalf("Stopped = %v, want wrapped context.Canceled", res.Stopped)
	}
}

func TestBudgetYieldsPartialResult(t *testing.T) {
	res, err := determinacy.Analyze(longSrc, determinacy.Options{Out: io.Discard, MaxSteps: 5000})
	if err != nil {
		t.Fatalf("Analyze returned error %v, want a partial result", err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeBudget {
		t.Fatalf("Partial=%v Degraded=%q, want partial/budget", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, determinacy.ErrBudget) {
		t.Fatalf("Stopped = %v, want ErrBudget", res.Stopped)
	}
	if res.NumFacts() == 0 {
		t.Error("facts recorded before the budget stop must survive")
	}
}

func TestFlushCapYieldsPartialResult(t *testing.T) {
	res, err := determinacy.Analyze(`
		var fns = [function(){ return 1; }, function(){ return 2; }];
		for (var i = 0; i < 50; i++) {
			fns[Math.random() < 0.5 ? 0 : 1]();
		}
	`, determinacy.Options{MaxFlushes: 5, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeFlushCap {
		t.Fatalf("Partial=%v Degraded=%q, want partial/flush-cap", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, determinacy.ErrFlushLimit) {
		t.Fatalf("Stopped = %v, want ErrFlushLimit", res.Stopped)
	}
}

func TestAnalyzeRunsMergedPartial(t *testing.T) {
	// All seeds hit the step budget, so every per-seed result is partial
	// and the merge must say so rather than presenting the union as
	// complete.
	prog, err := determinacy.Compile("long.js", longSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := determinacy.AnalyzeRuns(prog, determinacy.Options{
		Out:      io.Discard,
		MaxSteps: 5000,
		Workers:  2,
	}, 1, 2, 3)
	if err != nil {
		t.Fatalf("AnalyzeRuns returned error %v, want merged partial result", err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeBudget {
		t.Fatalf("merged Partial=%v Degraded=%q, want partial/budget", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, determinacy.ErrBudget) {
		t.Fatalf("merged Stopped = %v, want ErrBudget", res.Stopped)
	}
}

func TestAnalyzeRunsExpiredContext(t *testing.T) {
	// A context that is already past its deadline skips the seeds that
	// have not started: a skipped seed has no partial store to merge, so
	// the sweep reports an error wrapping the deadline.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	prog, err := determinacy.Compile("long.js", longSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := determinacy.AnalyzeRunsContext(ctx, prog, determinacy.Options{
		Out:     io.Discard,
		Workers: 2,
	}, 1, 2, 3)
	if err == nil {
		t.Fatalf("AnalyzeRunsContext = partial=%v degraded=%q, want an error", res.Partial, res.Degraded)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want it to wrap context.DeadlineExceeded", err)
	}
}

func TestPointsToContextInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The solver polls its context between propagation rounds; a large
	// strongly-connected flow graph guarantees several rounds.
	rep, err := determinacy.PointsToContext(ctx, longSrc+`
		var f = function(){ return f; };
		var g = f; var h = g; f = h;
	`, determinacy.PointsToOptions{})
	if err != nil {
		t.Fatalf("PointsToContext: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("cancelled context did not mark the report Interrupted")
	}
}
