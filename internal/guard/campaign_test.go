// Campaign test: thousands of seeded fault plans — panics, cancellations,
// and deadline expiries at every instrumented site — fired into the full
// public-API pipeline. Run under -race this proves the hard robustness
// contract: no injected fault ever crashes the process, deadlocks a pool,
// or escapes as anything other than a structured *RunError or a sound
// partial Result. Scale with FAULT_CAMPAIGN_RUNS (CI uses 1250).
package guard_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"determinacy"
	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
)

// campaignSrc runs long enough (~55k instrumented steps — about 26
// checkpoint crossings — with a call and an indeterminate branch per
// iteration) that checkpoint-site plans with small trigger counts
// reliably fire mid-run, while one clean run stays around 50ms so the
// full campaign finishes in CI time.
const campaignSrc = `
var obj = {a: 0, b: 1};
function bump(o, i) { o.a = o.a + i; return o.a; }
var r = Math.random();
var i = 0;
while (i < 1500) {
  bump(obj, i);
  if (r < 0.5) { obj.b = obj.b + 1; } else { obj.b = obj.b - 1; }
  i = i + 1;
}
console.log(obj.a);
`

// mix is a splitmix64-style hash for deriving plan parameters from seeds.
func mix(a, b uint64) uint64 {
	h := a ^ (b+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

func campaignRuns(t *testing.T, def int) int {
	if s := os.Getenv("FAULT_CAMPAIGN_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad FAULT_CAMPAIGN_RUNS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 10
	}
	return def
}

// TestFaultCampaign is the ISSUE's acceptance campaign: >=1000 seeded
// runs mixing injected panics, deadline expiries, and cancellations
// across the instrumented-interpreter, tree-interpreter, and batch entry
// points. Every outcome must be clean, a partial result with sound
// bookkeeping, or a structured *RunError.
func TestFaultCampaign(t *testing.T) {
	runs := campaignRuns(t, 1000)
	outcomes := map[string]int{}
	count := func(k string) { outcomes[k]++ }
	prog, err := determinacy.Compile("campaign.js", campaignSrc)
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(0); seed < uint64(runs); seed++ {
		h := mix(seed, 0xfa017)
		action := faultinject.Action(h % 3) // Panic, Cancel, Expire
		sites := []string{faultinject.SiteCoreStep, faultinject.SiteCoreCall, faultinject.SiteCoreFlush, ""}
		site := sites[(h>>2)%4]
		after := int64(1 + (h>>4)%9)
		mode := (h >> 8) % 4 // analyze, interp, batch, analyze-with-deadline-budget mix

		func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			plan := &faultinject.Plan{Site: site, After: after, Action: action, OnCancel: cancel}
			if mode == 1 {
				plan.Site = faultinject.SiteInterpStep
			}
			if mode == 2 && site == "" {
				plan.Site = faultinject.SiteBatchJob
			}
			faultinject.Arm(plan)
			defer faultinject.Disarm()

			opts := determinacy.Options{Seed: seed, MaxFlushes: 100000}
			switch mode {
			case 1: // plain tree interpreter
				_, err := determinacy.RunContext(ctx, campaignSrc, opts)
				checkRunOutcome(t, seed, plan, err, count)
			case 2: // batch fan-out over 4 seeds
				opts.Workers = 4
				res, err := determinacy.AnalyzeRunsContext(ctx, prog, opts, seed, seed+1, seed+2, seed+3)
				checkAnalyzeOutcome(t, seed, plan, res, err, count)
			default: // instrumented analysis
				res, err := determinacy.AnalyzeContext(ctx, campaignSrc, opts)
				checkAnalyzeOutcome(t, seed, plan, res, err, count)
			}
		}()
	}

	t.Logf("campaign outcomes over %d runs: %v", runs, outcomes)
	for _, want := range []string{"panic", "partial-cancel", "partial-deadline", "clean"} {
		if outcomes[want] == 0 {
			t.Errorf("campaign never produced a %q outcome; distribution: %v", want, outcomes)
		}
	}
}

// checkAnalyzeOutcome validates one Analyze/AnalyzeRuns campaign result.
func checkAnalyzeOutcome(t *testing.T, seed uint64, plan *faultinject.Plan, res *determinacy.Result, err error, count func(string)) {
	t.Helper()
	switch {
	case err != nil:
		var re *determinacy.RunError
		if errors.As(err, &re) {
			var inj faultinject.Injected
			if !errors.As(err, &inj) {
				t.Fatalf("seed %d: RunError %v does not unwrap to the injected fault", seed, err)
			}
			count("panic")
			return
		}
		// Batch mode: seeds skipped after a cancellation surface their
		// ctx-wrapped error rather than a RunError.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			count("error-cancelled")
			return
		}
		t.Fatalf("seed %d (plan %+v): unexpected failure kind: %v", seed, plan, err)
	case res == nil:
		t.Fatalf("seed %d: nil result with nil error", seed)
	case res.Partial:
		if res.Stopped == nil {
			t.Fatalf("seed %d: partial result with nil Stopped", seed)
		}
		switch res.Degraded {
		case determinacy.DegradeCancel:
			count("partial-cancel")
		case determinacy.DegradeDeadline:
			count("partial-deadline")
		case determinacy.DegradeBudget, determinacy.DegradeFlushCap:
			count("partial-" + string(res.Degraded))
		default:
			t.Fatalf("seed %d: partial result with unclassified reason %q", seed, res.Degraded)
		}
		// A partial store must still be coherent: rendering facts must not
		// panic and determinate count cannot exceed the total.
		if res.NumDeterminate() > res.NumFacts() {
			t.Fatalf("seed %d: partial store incoherent: %d determinate of %d facts",
				seed, res.NumDeterminate(), res.NumFacts())
		}
		_ = res.Facts()
	default:
		if plan.Fired() && plan.Action != faultinject.Expire {
			// A fired panic/cancel must never yield a silently complete result
			// (Expire can fire after the last checkpoint and go unnoticed).
			if plan.Action == faultinject.Panic {
				t.Fatalf("seed %d: plan fired (%v) but run reported success", seed, plan.Action)
			}
			count("clean-late-cancel")
			return
		}
		count("clean")
	}
}

// checkRunOutcome validates one plain-interpreter campaign result.
func checkRunOutcome(t *testing.T, seed uint64, plan *faultinject.Plan, err error, count func(string)) {
	t.Helper()
	switch {
	case err == nil:
		count("clean")
	case errors.Is(err, context.Canceled):
		count("partial-cancel")
	case errors.Is(err, context.DeadlineExceeded):
		count("partial-deadline")
	default:
		var re *determinacy.RunError
		if !errors.As(err, &re) {
			t.Fatalf("seed %d: interp error %v is neither ctx stop nor RunError", seed, err)
		}
		if re.Phase != "interp" {
			t.Fatalf("seed %d: RunError phase %q, want interp", seed, re.Phase)
		}
		count("panic")
	}
}

// TestInjectedDeadlineYieldsPartialFacts pins the end-to-end deadline
// path: an Expire plan must surface as ErrDeadline, a partial result, and
// the documented exit-code classification.
func TestInjectedDeadlineYieldsPartialFacts(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Arm(&faultinject.Plan{Site: faultinject.SiteCoreStep, After: 3, Action: faultinject.Expire})
	res, err := determinacy.Analyze(campaignSrc, determinacy.Options{})
	if err != nil {
		t.Fatalf("Analyze returned error %v, want partial result", err)
	}
	if !res.Partial || res.Degraded != determinacy.DegradeDeadline {
		t.Fatalf("Partial=%v Degraded=%q, want partial deadline", res.Partial, res.Degraded)
	}
	if !errors.Is(res.Stopped, determinacy.ErrDeadline) {
		t.Fatalf("Stopped = %v, want ErrDeadline", res.Stopped)
	}
	m := determinacy.NewMetrics()
	res.ExportMetrics(m)
	if got := m.Counter(guard.MetricDegraded).Value(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
	if got := m.Counter(fmt.Sprintf(guard.MetricDegraded+`{reason=%q}`, "deadline")).Value(); got != 1 {
		t.Fatalf("degraded{deadline} counter = %d, want 1", got)
	}
}

// TestPanicBoundaryReportsProgramPoint checks that a panic mid-execution
// carries the IR instruction and source position it happened at.
func TestPanicBoundaryReportsProgramPoint(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Arm(&faultinject.Plan{Site: faultinject.SiteCoreCall, After: 10, Action: faultinject.Panic})
	_, err := determinacy.Analyze(campaignSrc, determinacy.Options{})
	var re *determinacy.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Phase != "exec" || re.Instr < 0 || re.Pos == "" {
		t.Fatalf("RunError = phase %q instr %d pos %q, want exec phase with a program point", re.Phase, re.Instr, re.Pos)
	}
	if len(re.Stack) == 0 {
		t.Fatal("RunError.Stack empty")
	}
}
