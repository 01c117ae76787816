package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"testing"
	"time"

	"determinacy/internal/guard/faultinject"
	"determinacy/internal/server/sched"
)

// postJSONTenant is postJSON with a tenant identity (and optional extra
// headers) attached.
func postJSONTenant(t *testing.T, ctx context.Context, url, tenant string, body any, hdr map[string]string) (*http.Response, error) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant-ID", tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return http.DefaultClient.Do(req)
}

// overloadTotal resolves the campaign's request volume: the
// SERVER_OVERLOAD_CAMPAIGN_RUNS env var, defaulting to the 510-request
// floor (3 tenants x 170 concurrent clients).
func overloadTotal(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("SERVER_OVERLOAD_CAMPAIGN_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 3 {
			t.Fatalf("SERVER_OVERLOAD_CAMPAIGN_RUNS=%q: want an integer >= 3", v)
		}
		return n
	}
	return 510
}

// TestOverloadFairnessCampaign drives >= 500 concurrent requests from
// three tenants with 5:2:1 weights through a one-slot server and
// checks the fairness contract end to end:
//
//   - while every tenant is backlogged, grants interleave in weight
//     proportion (within 25%);
//   - the capped tenant's overflow is shed as typed 429s with Retry-After;
//   - every response is a clean 200, a sound partial, or a typed 429 —
//     never a hang, a 5xx, or a silent drop;
//   - the scheduler's per-tenant metrics and statusz snapshot agree;
//   - no goroutines leak once the storm drains.
func TestOverloadFairnessCampaign(t *testing.T) {
	base := runtime.NumGoroutine()
	total := overloadTotal(t)
	perTenant := total / 3
	bronzeCap := perTenant / 3

	table, err := sched.ParseTable([]byte(fmt.Sprintf(
		`{"gold":{"weight":5},"silver":{"weight":2},"bronze":{"weight":1,"queue_cap":%d}}`, bronzeCap)))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Tenants:     table,
		MaxInFlight: 1,
		QueueDepth:  4 * total,
		// Budgets far above the storm's duration: nothing times out in
		// queue, so completion counts are pure scheduling.
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     5 * time.Minute,
		// The flight recorder retains the whole campaign: grant order is
		// measured from its server-side timestamps below.
		FlightEntries: 4 * total,
	})

	// Occupy the only slot so every client enqueues before dispatch
	// starts; cancelling the holder's request then opens the floodgate.
	long := strings.Replace(slowSrc, "i < 3000", "i < 50000000", 1)
	holdCtx, releaseSlot := context.WithCancel(context.Background())
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		resp, err := postJSONTenant(t, holdCtx, ts.URL+"/v1/analyze", "warm", AnalyzeRequest{Source: long}, nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInFlight(t, s, 1)

	type result struct {
		tenant string
		status int
		shed   ErrorBody
		retry  string
		hang   bool
	}
	results := make([]result, 3*perTenant)
	var wg sync.WaitGroup
	idx := 0
	for _, tenant := range []string{"gold", "silver", "bronze"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(slot int, tenant string) {
				defer wg.Done()
				res := result{tenant: tenant}
				resp, err := postJSONTenant(t, context.Background(), ts.URL+"/v1/analyze", tenant, AnalyzeRequest{Source: quickSrc}, nil)
				if err != nil {
					res.hang = true
					results[slot] = res
					return
				}
				res.status = resp.StatusCode
				if resp.StatusCode == http.StatusOK {
					var out AnalyzeResponse
					_ = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
				} else {
					res.retry = resp.Header.Get("Retry-After")
					var out ErrorResponse
					_ = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					res.shed = out.Error
				}
				results[slot] = res
			}(idx, tenant)
			idx++
		}
	}

	// Every client is either parked in the scheduler queue or already
	// shed (bronze beyond its cap) before the slot opens.
	wantQueued := 2*perTenant + bronzeCap
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && int(s.metrics.Gauge("server_queue_depth").Value()) < wantQueued {
		time.Sleep(5 * time.Millisecond)
	}
	if got := int(s.metrics.Gauge("server_queue_depth").Value()); got < wantQueued {
		t.Fatalf("only %d of %d clients queued within 30s", got, wantQueued)
	}
	releaseSlot()
	<-holderDone
	wg.Wait()

	// Classify. Allowed terminal states: 200 (clean or sound partial) and
	// typed 429 sheds carrying Retry-After.
	perTenantOK := map[string]int{}
	sheds := map[string]int{}
	for _, res := range results {
		switch {
		case res.hang:
			t.Fatal("a client saw a transport error (hung or dropped response)")
		case res.status == http.StatusOK:
			perTenantOK[res.tenant]++
		case res.status == http.StatusTooManyRequests:
			sheds[res.tenant]++
			if res.shed.Kind != "shed" {
				t.Fatalf("429 with kind %q, want shed", res.shed.Kind)
			}
			if res.retry == "" || res.shed.RetryAfterMS <= 0 {
				t.Fatalf("429 without retry guidance: header=%q body=%d", res.retry, res.shed.RetryAfterMS)
			}
		default:
			t.Fatalf("tenant %s got status %d (%+v), want 200 or 429", res.tenant, res.status, res.shed)
		}
	}
	// Full accounting: every one of the 3*perTenant clients landed on
	// exactly one terminal state, and bronze's cap actually bit. (A bronze
	// straggler that enqueues after dispatch starts completes instead of
	// shedding, so the shed count has a floor, not an exact value.)
	for _, tenant := range []string{"gold", "silver", "bronze"} {
		if perTenantOK[tenant]+sheds[tenant] != perTenant {
			t.Errorf("tenant %s: %d ok + %d shed != %d clients", tenant, perTenantOK[tenant], sheds[tenant], perTenant)
		}
	}
	if min := (perTenant - bronzeCap) / 2; sheds["bronze"] < min {
		t.Errorf("bronze sheds = %d, want >= %d (clients beyond queue_cap %d)", sheds["bronze"], min, bronzeCap)
	}
	if sheds["gold"] != 0 || sheds["silver"] != 0 {
		t.Errorf("uncapped tenants were shed: gold=%d silver=%d", sheds["gold"], sheds["silver"])
	}

	// Weighted fairness over the window where all three tenants were
	// backlogged: the first M completions split 5:2:1 within 25%. Grant
	// order comes from the flight recorder's server-side timestamps
	// (start + elapsed = completion instant) — client-side arrival order
	// is too blurred by goroutine scheduling under 500 concurrent readers.
	m := 8 * bronzeCap / 2 // bronze stays backlogged through m*1/8 <= bronzeCap grants; halve for slack
	type grant struct {
		tenant string
		end    time.Time
	}
	var grants []grant
	for _, e := range s.flight.Entries() {
		if e.Status != http.StatusOK || e.Route != "/v1/analyze" {
			continue
		}
		switch e.Tenant {
		case "gold", "silver", "bronze":
			grants = append(grants, grant{e.Tenant, e.Start.Add(time.Duration(e.ElapsedUS) * time.Microsecond)})
		case "":
			t.Fatal("a 200 entry has no tenant attribution")
		}
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].end.Before(grants[j].end) })
	if len(grants) < m {
		t.Fatalf("flight recorder retained %d campaign completions, want >= %d", len(grants), m)
	}
	firstM := map[string]int{}
	for _, g := range grants[:m] {
		firstM[g.tenant]++
	}
	for tenant, weight := range map[string]float64{"gold": 5, "silver": 2, "bronze": 1} {
		want := float64(m) * weight / 8
		got := float64(firstM[tenant])
		t.Logf("tenant=%-6s weight=%g clients=%d completed=%d shed=%d first-%d-share=%d (ideal %.0f)",
			tenant, weight, perTenant, perTenantOK[tenant], sheds[tenant], m, firstM[tenant], want)
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("tenant %s completed %v of the first %d grants, want %v +/- 25%% (weights 5:2:1)", tenant, got, m, want)
		}
	}

	// The scheduler's own accounting agrees with the client-side view.
	snap := s.sched.Snapshot()
	byName := map[string]sched.TenantSnapshot{}
	for _, tsnap := range snap.Tenants {
		byName[tsnap.Tenant] = tsnap
	}
	for _, tenant := range []string{"gold", "silver", "bronze"} {
		if int(byName[tenant].Admitted) != perTenantOK[tenant] {
			t.Errorf("snapshot admitted[%s] = %d, clients saw %d", tenant, byName[tenant].Admitted, perTenantOK[tenant])
		}
		if int(byName[tenant].Shed) != sheds[tenant] {
			t.Errorf("snapshot shed[%s] = %d, clients saw %d", tenant, byName[tenant].Shed, sheds[tenant])
		}
	}
	if c := s.metrics.Counter(`sched_sheds_total{reason="tenant-queue-full"}`).Value(); int(c) != sheds["bronze"] {
		t.Errorf(`sched_sheds_total{reason="tenant-queue-full"} = %v, want %d`, c, sheds["bronze"])
	}
	var dump strings.Builder
	_ = s.metrics.WriteProm(&dump)
	for _, series := range []string{
		`sched_queue_depth{tenant="bronze"}`,
		`server_tenant_request_seconds_count{tenant="gold"}`,
		`sched_sheds_total{reason="tenant-queue-full"}`,
	} {
		if !strings.Contains(dump.String(), series) {
			t.Errorf("metrics dump missing %s", series)
		}
	}

	if n, ok := settleGoroutines(base, 12); !ok {
		t.Errorf("goroutines did not settle: %d now vs %d at start", n, base)
	}
}

// TestOverloadChaosCampaign replays seeded fault plans over the two
// scheduler sites while bursts of multi-tenant traffic contend for slots.
// The invariant: every response is clean, a sound partial, a typed 429,
// or the injected fault's structured 500 — and after each round the
// server still serves, holds no slots, and leaks no goroutines.
func TestOverloadChaosCampaign(t *testing.T) {
	base := runtime.NumGoroutine()
	table, err := sched.ParseTable([]byte(`{"gold":{"weight":5},"silver":{"weight":2},"bronze":{"weight":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"gold", "silver", "bronze", "unknown-tenant"}
	sites := []string{faultinject.SiteSchedEnqueue, faultinject.SiteSchedDispatch}

	const rounds = 8
	const burst = 24
	for round := 0; round < rounds; round++ {
		site := sites[round/2%2]
		t.Run(fmt.Sprintf("round%d-%s", round, site), func(t *testing.T) {
			s, ts := newTestServer(t, Config{
				Tenants:     table,
				MaxInFlight: 2,
				QueueDepth:  8,
			})
			faultinject.Arm(&faultinject.Plan{Site: site, After: int64(1 + round*3), Action: faultinject.Panic})
			defer faultinject.Disarm()

			var mu sync.Mutex
			var n200, n429, n500 int
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := postJSONTenant(t, context.Background(), ts.URL+"/v1/analyze", tenants[i%len(tenants)], AnalyzeRequest{Source: slowSrc, Seed: uint64(i)}, nil)
					if err != nil {
						t.Errorf("request %d: transport error %v", i, err)
						return
					}
					defer resp.Body.Close()
					var body struct {
						Partial bool `json:"partial"`
						Error   struct {
							Kind    string `json:"kind"`
							Message string `json:"message"`
						} `json:"error"`
					}
					_ = json.NewDecoder(resp.Body).Decode(&body)
					mu.Lock()
					defer mu.Unlock()
					switch resp.StatusCode {
					case http.StatusOK:
						n200++
					case http.StatusTooManyRequests:
						n429++
						if body.Error.Kind != "shed" {
							t.Errorf("request %d: 429 kind %q, want shed", i, body.Error.Kind)
						}
						if resp.Header.Get("Retry-After") == "" {
							t.Errorf("request %d: 429 without Retry-After", i)
						}
					case http.StatusInternalServerError:
						n500++
						if body.Error.Kind != "panic" || body.Error.Message == "" {
							t.Errorf("request %d: 500 kind %q message %q, want typed panic", i, body.Error.Kind, body.Error.Message)
						}
					default:
						t.Errorf("request %d: status %d, want 200/429/500", i, resp.StatusCode)
					}
				}(i)
			}
			wg.Wait()
			if n500 > 1 {
				t.Errorf("%d structured 500s from a single armed fault, want at most 1", n500)
			}
			if n200 == 0 {
				t.Error("no request completed during the chaos round")
			}

			// Recovery: the fault fired and is inert; the server must hold
			// zero slots and serve cleanly. A handler writes its response
			// before its deferred release runs, so a client can finish
			// reading while the server still holds the slot: wait (bounded)
			// for the releases to land before asserting.
			faultinject.Disarm()
			settleDeadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(settleDeadline) {
				snap := s.sched.Snapshot()
				if s.metrics.Gauge("server_inflight").Value() == 0 && snap.InFlight == 0 && snap.Queued == 0 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if v := s.metrics.Gauge("server_inflight").Value(); v != 0 {
				t.Fatalf("server_inflight = %v after round drained, want 0 (slot leak)", v)
			}
			if got := s.sched.Snapshot(); got.InFlight != 0 || got.Queued != 0 {
				t.Fatalf("scheduler snapshot after round = %+v, want empty", got)
			}
			resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-chaos probe: status %d, want 200", resp.StatusCode)
			}
			resp.Body.Close()
		})
	}
	if n, ok := settleGoroutines(base, 12); !ok {
		t.Errorf("goroutines did not settle after chaos rounds: %d now vs %d at start", n, base)
	}
}

// TestDeadlineAwareShed proves deadline-aware queue control on a server
// with no tenant table: once the observed p50 service time exceeds a
// request's remaining budget, the scheduler sheds it immediately with
// retry guidance instead of letting it burn a slot to seal a near-empty
// partial.
func TestDeadlineAwareShed(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInFlight: 1,
		QueueDepth:  8,
	})
	// Warm the service-time window with ~100ms runs.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: slowSrc, Seed: uint64(i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if p50 := s.sched.Snapshot().P50MS; p50 < 5 {
		t.Fatalf("p50 after warmup = %.2fms, too fast to drive the deadline check", p50)
	}

	t0 := time.Now()
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: slowSrc, TimeoutMS: 1})
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed request: status %d, want 429", resp.StatusCode)
	}
	body := decodeError(t, resp)
	if body.Kind != "shed" || body.RetryAfterMS <= 0 {
		t.Fatalf("doomed request: kind %q retry_after_ms %d, want typed shed with guidance", body.Kind, body.RetryAfterMS)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline shed took %v, want immediate refusal", elapsed)
	}
	if c := s.metrics.Counter(`sched_sheds_total{reason="deadline-unmeetable"}`).Value(); c < 1 {
		t.Errorf(`sched_sheds_total{reason="deadline-unmeetable"} = %v, want >= 1`, c)
	}

	// A budgeted-but-feasible request still serves.
	resp = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: slowSrc, TimeoutMS: 10_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feasible request: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestNoTableAdmitsInArrivalOrder pins admission on a server with no
// tenant table: every request resolves to the shared "other" tenant, and
// with one slot the queued requests run first come, first served. Each
// request's analysis starts only after the previous one released the
// slot, so the server-side start of its first trace span orders grants.
func TestNoTableAdmitsInArrivalOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInFlight:    1,
		QueueDepth:     8,
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     5 * time.Minute,
	})
	long := strings.Replace(slowSrc, "i < 3000", "i < 50000000", 1)
	holdCtx, releaseSlot := context.WithCancel(context.Background())
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		resp, err := postJSONTenant(t, holdCtx, ts.URL+"/v1/analyze", "", AnalyzeRequest{Source: long}, nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInFlight(t, s, 1)

	// Enqueue one request at a time, each under a different tenant ID
	// and with its own program, so arrival order is known.
	const n = 5
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("var x = %d; console.log(x + 1);", i)
			resp, err := postJSONTenant(t, context.Background(), ts.URL+"/v1/analyze", fmt.Sprintf("t%d", i), AnalyzeRequest{Source: src}, nil)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, want 200", i, resp.StatusCode)
			}
			ids[i] = resp.Header.Get("X-Request-ID")
		}(i)
		deadline := time.Now().Add(5 * time.Second)
		for s.sched.Snapshot().Queued < i+1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if q := s.sched.Snapshot().Queued; q != i+1 {
			t.Fatalf("queued = %d after request %d, want %d", q, i, i+1)
		}
	}
	releaseSlot()
	<-holderDone
	wg.Wait()

	started := map[string]time.Time{}
	for _, e := range s.flight.Entries() {
		if len(e.Phases) == 0 {
			continue
		}
		first := e.Phases[0].StartUS
		for _, sp := range e.Phases {
			if sp.StartUS < first {
				first = sp.StartUS
			}
		}
		started[e.TraceID] = e.Start.Add(time.Duration(first) * time.Microsecond)
		if e.Tenant != "other" {
			t.Errorf("entry %s: tenant %q, want every request pooled as \"other\"", e.TraceID, e.Tenant)
		}
	}
	for i := 1; i < n; i++ {
		prev, ok1 := started[ids[i-1]]
		cur, ok2 := started[ids[i]]
		if !ok1 || !ok2 {
			t.Fatalf("flight recorder lacks requests %d or %d (ids %q, %q)", i-1, i, ids[i-1], ids[i])
		}
		if !prev.Before(cur) {
			t.Errorf("request %d started analysis at %v, not after request %d at %v: grants are not in arrival order", i, cur, i-1, prev)
		}
	}
}
