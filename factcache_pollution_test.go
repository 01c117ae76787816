// Fault-injection tests for the fact cache's pollution contract: a run
// stopped by an injected panic, cancellation, or deadline expiry at any
// instrumented core site must never populate the fact DB, and a
// subsequent clean cold run followed by a warm run must agree
// byte-for-byte. Sealed partials are sound but truncated, so caching
// them would serve wrong (incomplete) facts to a later complete request.
package determinacy_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/guard/faultinject"
)

// pollutionSrc runs long enough (a call, an indeterminate branch, and a
// store through an indeterminate base — a guaranteed heap flush — per
// iteration) that plans on every core checkpoint site reliably fire
// mid-run.
const pollutionSrc = `
var obj = {a: 0, b: 1};
var alt = {a: 0, b: 0};
function bump(o, i) { o.a = o.a + i; return o.a; }
var r = Math.random();
var pick;
if (r < 0.5) { pick = obj; } else { pick = alt; }
var i = 0;
while (i < 500) {
  bump(obj, i);
  pick.b = i;
  if (r < 0.5) { obj.b = obj.b + 1; } else { obj.b = obj.b - 1; }
  i = i + 1;
}
console.log(obj.a);
`

// renderResult flattens a run for byte comparison (same shape as the
// diffcheck memo oracle's render).
func renderResult(res *determinacy.Result, out []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "partial=%v degraded=%s handlers=%d\n", res.Partial, res.Degraded, res.HandlersRan)
	fmt.Fprintf(&b, "stats=%+v\n", res.Stats)
	fmt.Fprintf(&b, "out=%q\n", out)
	for _, f := range res.Store().Sorted() {
		fmt.Fprintf(&b, "%d|%s|%d det=%v hits=%d val=%v\n", f.Instr, f.Ctx.Key(), f.Seq, f.Det, f.Hits, f.Val)
	}
	return b.String()
}

func TestFaultedRunsNeverPolluteFactDB(t *testing.T) {
	dir := t.TempDir()
	sites := []string{faultinject.SiteCoreStep, faultinject.SiteCoreFlush, faultinject.SiteCoreCall}
	actions := []faultinject.Action{faultinject.Panic, faultinject.Cancel, faultinject.Expire}
	combo := 0
	for _, site := range sites {
		for _, action := range actions {
			combo++
			// A distinct seed per combination gives each its own cache key,
			// so one combination's state can never mask another's pollution.
			seed := uint64(1000 + combo)
			t.Run(fmt.Sprintf("%s-%s", site, action), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				plan := &faultinject.Plan{Site: site, After: int64(2 + combo), Action: action, OnCancel: cancel}
				faultinject.Arm(plan)
				fc, err := determinacy.OpenFactCache(dir)
				if err != nil {
					faultinject.Disarm()
					t.Fatal(err)
				}
				opts := determinacy.Options{Seed: seed, MaxFlushes: 100000, FactCache: fc}
				res, runErr := determinacy.AnalyzeContext(ctx, pollutionSrc, opts)
				faultinject.Disarm()
				if !plan.Fired() {
					t.Fatalf("plan never fired (hits %d)", plan.Hits())
				}
				st := fc.Internal().Stats()
				faulted := runErr != nil || (res != nil && res.Partial)
				if faulted && st.Stores != 0 {
					t.Fatalf("faulted run (err=%v partial=%v) populated the fact DB: %+v", runErr, res != nil && res.Partial, st)
				}
				if faulted && st.Skips == 0 {
					t.Fatalf("faulted run recorded no eligibility skip: %+v", st)
				}

				// A clean cold run on the same key must now miss (nothing was
				// cached), complete, and populate; a warm run through a fresh
				// handle must serve it byte-identically.
				cold, err := determinacy.OpenFactCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				var coldOut bytes.Buffer
				coldOpts := opts
				coldOpts.FactCache, coldOpts.Out = cold, &coldOut
				resC, err := determinacy.Analyze(pollutionSrc, coldOpts)
				if err != nil || resC.Partial {
					t.Fatalf("clean run failed: err=%v partial=%v", err, resC != nil && resC.Partial)
				}
				cst := cold.Internal().Stats()
				if faulted && cst.Hits != 0 {
					t.Fatalf("clean run after a faulted one hit the cache: the faulted run must not have populated it (%+v)", cst)
				}
				if cst.Stores+cst.Hits == 0 {
					t.Fatalf("clean run neither stored nor hit: %+v", cst)
				}
				warm, err := determinacy.OpenFactCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				var warmOut bytes.Buffer
				warmOpts := opts
				warmOpts.FactCache, warmOpts.Out = warm, &warmOut
				resW, err := determinacy.Analyze(pollutionSrc, warmOpts)
				if err != nil {
					t.Fatalf("warm run failed: %v", err)
				}
				if got := warm.Internal().Stats(); got.Hits != 1 {
					t.Fatalf("warm run did not hit the cache: %+v", got)
				}
				if c, w := renderResult(resC, coldOut.Bytes()), renderResult(resW, warmOut.Bytes()); c != w {
					t.Fatalf("warm run differs from cold run:\ncold:\n%s\nwarm:\n%s", c, w)
				}
			})
		}
	}
}
