// Seeded fault campaign against a live server: hundreds of requests with
// injected panics, cancellations, and deadline expiries at the HTTP
// admission layer, the request boundary, and the interpreter checkpoints.
// Run under -race this proves the service-level robustness contract: zero
// hangs, zero goroutine leaks, and every response is a clean result, a
// sound partial, or a structured error. Scale with
// SERVER_FAULT_CAMPAIGN_RUNS (CI uses 500).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"determinacy/internal/guard/faultinject"
	"determinacy/internal/obs"
)

// campaignSrc mirrors the guard campaign program, tuned for request
// volume: ~20k instrumented steps (about 10 checkpoint crossings) with a
// call and an indeterminate branch every 100th iteration, so checkpoint-,
// call-, and flush-site plans with trigger counts up to 10 all fire
// mid-run — while the fact store stays small enough (calls happen in few
// distinct contexts) that a clean run plus its rendered response is cheap
// under -race, keeping a 500-request campaign inside CI time.
const campaignSrc = `
var obj = {a: 0, b: 1};
function bump(o, i) { o.a = o.a + i; return o.a; }
var r = Math.random();
var i = 0;
while (i < 1000) {
  obj.a = obj.a + i;
  if (i % 100 == 0) {
    bump(obj, i);
    if (r < 0.5) { obj.b = obj.b + 1; } else { obj.b = obj.b - 1; }
  }
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
	if s := os.Getenv("SERVER_FAULT_CAMPAIGN_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SERVER_FAULT_CAMPAIGN_RUNS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 10
	}
	return def
}

// settleGoroutines waits for the goroutine count to drop back to within
// slack of base, giving finished handlers and keep-alive conns time to
// unwind.
func settleGoroutines(base, slack int) (int, bool) {
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= base+slack {
			return n, true
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	return n, false
}

// TestServerFaultCampaign is the ISSUE's acceptance campaign: >=500
// seeded requests against a live server with faults injected at
// server.admit, server.request, and the interpreter checkpoint sites.
func TestServerFaultCampaign(t *testing.T) {
	runs := campaignRuns(t, 500)
	// FlightEntries covers the whole campaign so the trace-accounting
	// sweep below never races eviction.
	s := New(Config{MaxTimeout: 10 * time.Second, DefaultTimeout: 10 * time.Second,
		FlightEntries: runs + 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer faultinject.Disarm()

	// wantOutcome[traceID] is the set of flight-recorder outcomes the
	// response's status/body admits; checked against /debug/statusz after
	// the campaign.
	wantOutcome := map[string][]string{}

	// Warm up (compile cache, conn pool) before the leak baseline.
	warm := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: campaignSrc})
	warm.Body.Close()
	client.CloseIdleConnections()
	base := runtime.NumGoroutine()

	outcomes := map[string]int{}
	count := func(k string) { outcomes[k]++ }

	for seed := uint64(0); seed < uint64(runs); seed++ {
		h := mix(seed, 0x5e12e)
		action := faultinject.Action(h % 3) // Panic, Cancel, Expire
		sites := []string{
			faultinject.SiteCoreStep, faultinject.SiteCoreCall, faultinject.SiteCoreFlush,
			faultinject.SiteServerRequest, faultinject.SiteServerAdmit, "",
		}
		site := sites[(h>>2)%6]
		after := int64(1 + (h>>5)%9)
		mode := (h >> 9) % 4 // analyze / analyze+runs / batch / unarmed
		armed := mode != 3

		func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if armed {
				faultinject.Arm(&faultinject.Plan{Site: site, After: after, Action: action, OnCancel: cancel})
			} else {
				faultinject.Disarm()
			}
			defer faultinject.Disarm()

			var reqBody any
			path := "/v1/analyze"
			switch mode {
			case 1:
				reqBody = AnalyzeRequest{Source: campaignSrc, Seed: seed, Runs: 2}
			case 2:
				path = "/v1/batch"
				reqBody = BatchRequest{Programs: []BatchProgram{
					{Name: "a.js", Source: campaignSrc, Seed: seed},
					{Name: "b.js", Source: campaignSrc, Seed: seed + 1},
					{Name: "c.js", Source: campaignSrc, Seed: seed + 2},
				}}
			default:
				reqBody = AnalyzeRequest{Source: campaignSrc, Seed: seed}
			}
			b, err := json.Marshal(reqBody)
			if err != nil {
				t.Fatalf("seed %d: marshal: %v", seed, err)
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(b))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			req.Header.Set("Content-Type", "application/json")

			resp, err := client.Do(req)
			if err != nil {
				// The only tolerated transport failure is our own injected
				// cancellation of the client context.
				if armed && action == faultinject.Cancel && errors.Is(err, context.Canceled) {
					count("client-cancel")
					return
				}
				t.Fatalf("seed %d (site %q after %d action %v mode %d): transport error: %v",
					seed, site, after, action, mode, err)
			}
			defer resp.Body.Close()

			traceID := resp.Header.Get("X-Request-ID")
			if traceID == "" {
				t.Fatalf("seed %d: response without X-Request-ID", seed)
			}
			expect := func(outs ...string) { wantOutcome[traceID] = outs }
			// decode reads a 200 body into v. The injected cancellation of
			// the client context can land after the response headers
			// arrived; the body read then fails with context.Canceled. That
			// is the same tolerated client cancel as the transport-error
			// branch above, under the same condition; anything else is
			// fatal.
			decode := func(what string, v any) bool {
				err := json.NewDecoder(resp.Body).Decode(v)
				if err == nil {
					return true
				}
				if armed && action == faultinject.Cancel && errors.Is(err, context.Canceled) {
					t.Logf("seed %d (site %q after %d action %v mode %d): status %d body read cancelled by the injected client cancel",
						seed, site, after, action, mode, resp.StatusCode)
					count("client-cancel")
					return false
				}
				t.Fatalf("seed %d (site %q after %d action %v mode %d): status %d: %s: %v",
					seed, site, after, action, mode, resp.StatusCode, what, err)
				return false
			}

			switch {
			case resp.StatusCode == http.StatusOK && mode == 2:
				var out BatchResponse
				if !decode("batch decode", &out) {
					return
				}
				if len(out.Results) != 3 {
					t.Fatalf("seed %d: batch returned %d results, want 3", seed, len(out.Results))
				}
				for i, r := range out.Results {
					if (r.Result == nil) == (r.Error == nil) {
						t.Fatalf("seed %d entry %d: want exactly one of result/error: %+v", seed, i, r)
					}
					if r.Error != nil && r.Error.Kind == "" {
						t.Fatalf("seed %d entry %d: error with empty kind", seed, i)
					}
					if r.Result != nil && r.Result.NumDeterminate > r.Result.NumFacts {
						t.Fatalf("seed %d entry %d: incoherent store", seed, i)
					}
				}
				if out.Failed > 0 {
					count("batch-mixed")
					// Failed entries may include interpreter panics, which
					// quarantine the whole batch in the flight recorder.
					expect(outcomeSoundPartial, outcomeQuarantined)
				} else {
					count("clean")
					expect(outcomeOK)
				}
			case resp.StatusCode == http.StatusOK:
				var out AnalyzeResponse
				if !decode("decode", &out) {
					return
				}
				if out.NumDeterminate > out.NumFacts {
					t.Fatalf("seed %d: incoherent store: %d determinate of %d facts", seed, out.NumDeterminate, out.NumFacts)
				}
				if out.Partial {
					if out.DegradeReason == "" {
						t.Fatalf("seed %d: partial response without a degrade reason", seed)
					}
					count("partial-" + out.DegradeReason)
					expect(outcomeSoundPartial)
				} else {
					count("clean")
					expect(outcomeOK)
				}
			default:
				var out ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("seed %d (site %q after %d action %v mode %d): status %d with undecodable body: %v",
						seed, site, after, action, mode, resp.StatusCode, err)
				}
				if out.Error.Kind == "" || out.Error.Message == "" {
					t.Fatalf("seed %d: status %d with unstructured error %+v", seed, resp.StatusCode, out)
				}
				switch resp.StatusCode {
				case http.StatusBadRequest, http.StatusUnprocessableEntity,
					http.StatusTooManyRequests, http.StatusInternalServerError,
					http.StatusServiceUnavailable:
				default:
					t.Fatalf("seed %d: unexpected status %d (kind %s)", seed, resp.StatusCode, out.Error.Kind)
				}
				count("error-" + out.Error.Kind)
				expect(outcomeForKind(out.Error.Kind))
			}
		}()
	}

	t.Logf("campaign outcomes over %d runs: %v", runs, outcomes)
	for _, want := range []string{"clean", "error-panic"} {
		if outcomes[want] == 0 {
			t.Errorf("campaign never produced a %q outcome; distribution: %v", want, outcomes)
		}
	}
	if outcomes["partial-deadline"]+outcomes["partial-cancel"]+outcomes["client-cancel"] == 0 {
		t.Errorf("campaign never exercised a cancellation/deadline path; distribution: %v", outcomes)
	}

	// Trace accounting: every request that produced a response must be in
	// the flight recorder under its X-Request-ID, with the terminal outcome
	// its status/body admitted (client-cancelled transports are the only
	// requests we cannot account for, having never seen their response).
	page := getStatusz(t, ts.URL)
	byID := map[string]obs.FlightEntry{}
	for _, e := range page.Entries {
		byID[e.TraceID] = e
	}
	verified := 0
	for id, admitted := range wantOutcome {
		e, ok := byID[id]
		if !ok {
			t.Errorf("trace %s answered a request but is absent from /debug/statusz", id)
			continue
		}
		match := false
		for _, o := range admitted {
			if e.Outcome == o {
				match = true
				break
			}
		}
		if !match {
			t.Errorf("trace %s: flight outcome %q, but the response admits only %v", id, e.Outcome, admitted)
			continue
		}
		verified++
	}
	if verified == 0 {
		t.Error("campaign verified no trace IDs against the flight recorder")
	}
	t.Logf("verified %d/%d trace IDs against /debug/statusz", verified, len(wantOutcome))

	// The process must come back to its baseline goroutine count: no
	// handler, pool worker, or context watcher may leak per request.
	client.CloseIdleConnections()
	if n, ok := settleGoroutines(base, 10); !ok {
		t.Errorf("goroutine leak: %d at baseline, %d after %d faulted requests", base, n, runs)
	}
}

// TestServerDrainDuringCampaignLoad drains mid-load and checks the
// combined contract: in-flight requests answer (clean or sealed partial),
// refused ones get typed 503s, and Drain returns within its budget.
func TestServerDrainDuringCampaignLoad(t *testing.T) {
	s := New(Config{MaxInFlight: 2, QueueDepth: 2, MaxTimeout: 5 * time.Minute, DefaultTimeout: 5 * time.Minute, DrainTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := `
var i = 0; var r = Math.random(); var a = 0;
while (i < 50000000) { if (r < 0.5) { a = a + 1; } i = i + 1; }
console.log(a);
`
	type outcome struct {
		status  int
		partial bool
	}
	results := make(chan outcome, 6)
	for k := 0; k < 6; k++ {
		go func(k int) {
			resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: long, Seed: uint64(k)})
			var o outcome
			o.status = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				o.partial = decodeAnalyze(t, resp).Partial
			} else {
				resp.Body.Close()
			}
			results <- o
		}(k)
	}
	waitInFlight(t, s, 2)

	t0 := time.Now()
	clean := s.Drain()
	if clean {
		t.Error("Drain reported clean for 50M-iteration runs in 100ms")
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Errorf("Drain took %v past a 100ms budget: force-cancel did not stop runs", el)
	}

	var served, refused int
	for k := 0; k < 6; k++ {
		select {
		case o := <-results:
			switch {
			case o.status == http.StatusOK && o.partial:
				served++
			case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
				refused++
			default:
				t.Errorf("request finished with status %d partial=%v; want sealed partial or typed refusal", o.status, o.partial)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request hung through drain")
		}
	}
	if served == 0 {
		t.Error("no in-flight request sealed a partial result through the drain")
	}
	if refused == 0 {
		t.Error("no request was refused during the drain (expected queue overflow or drain refusals)")
	}
}
