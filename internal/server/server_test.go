package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"determinacy"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/server/sched"
	"determinacy/internal/version"
)

// slowSrc runs long enough (~100ms) that a request holding an execution
// slot is observable from concurrent requests, while a force-cancel stops
// it at the next guard checkpoint.
const slowSrc = `
var obj = {a: 0};
var r = Math.random();
var i = 0;
while (i < 3000) {
  obj.a = obj.a + i;
  if (r < 0.5) { obj.a = obj.a + 1; }
  i = i + 1;
}
console.log(obj.a);
`

const quickSrc = `var x = 1 + 2; console.log(x);`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeAnalyze(t *testing.T, resp *http.Response) AnalyzeResponse {
	t.Helper()
	defer resp.Body.Close()
	var out AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode analyze response: %v", err)
	}
	return out
}

func decodeError(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var out ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if out.Error.Kind == "" {
		t.Fatalf("error response with empty kind: %+v", out)
	}
	return out.Error
}

func TestAnalyzeBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Name: "basic.js", Source: quickSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeAnalyze(t, resp)
	if out.Name != "basic.js" {
		t.Errorf("name = %q, want basic.js", out.Name)
	}
	if out.Partial {
		t.Errorf("clean run reported partial (%s)", out.DegradeReason)
	}
	if out.NumFacts == 0 || len(out.Facts) != out.NumFacts {
		t.Errorf("facts: len=%d num_facts=%d, want equal and positive", len(out.Facts), out.NumFacts)
	}
	if out.NumDeterminate > out.NumFacts {
		t.Errorf("num_determinate %d > num_facts %d", out.NumDeterminate, out.NumFacts)
	}
	if out.Stats.Steps == 0 {
		t.Error("stats.steps = 0, want > 0")
	}
}

func TestAnalyzeFactsNeverNull(t *testing.T) {
	// A program with no observable facts must answer [] — clients iterate
	// the field without a null check. "var x;" records no fact at all, so
	// Result.Facts returns nil and the handler must still send [].
	_, ts := newTestServer(t, Config{})
	for _, req := range []AnalyzeRequest{
		{Source: `var x = 0;`, DetOnly: true},
		{Source: `var x;`},
		{Source: `var x;`, DetOnly: true},
	} {
		resp := postJSON(t, ts.URL+"/v1/analyze", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status = %d, want 200", req.Source, resp.StatusCode)
		}
		var raw map[string]json.RawMessage
		err := json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if string(raw["facts"]) == "null" {
			t.Errorf("%q det_only=%v: facts marshaled as null, want []", req.Source, req.DetOnly)
		}
		if req.Source == `var x;` && string(raw["facts"]) != "[]" {
			t.Errorf("%q det_only=%v: facts = %s, want []", req.Source, req.DetOnly, raw["facts"])
		}
	}
}

// TestAnalyzeDetOnlyMatchesFull checks that det_only answers exactly the
// determinate facts of the full response, in the same order, and that
// their count is num_determinate.
func TestAnalyzeDetOnlyMatchesFull(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{Source: slowSrc, Seed: 3}
	full := decodeAnalyze(t, postJSON(t, ts.URL+"/v1/analyze", req))
	req.DetOnly = true
	det := decodeAnalyze(t, postJSON(t, ts.URL+"/v1/analyze", req))

	var want []determinacy.Fact
	for _, f := range full.Facts {
		if f.Determinate {
			want = append(want, f)
		}
	}
	if len(want) == 0 || len(want) == len(full.Facts) {
		t.Fatalf("want a mix of determinate and indeterminate facts, got %d of %d determinate", len(want), len(full.Facts))
	}
	if !reflect.DeepEqual(det.Facts, want) {
		t.Errorf("det_only facts differ from the full response's determinate facts (%d vs %d)", len(det.Facts), len(want))
	}
	if len(det.Facts) != det.NumDeterminate || det.NumDeterminate != full.NumDeterminate {
		t.Errorf("det_only: %d facts, num_determinate %d (full %d)", len(det.Facts), det.NumDeterminate, full.NumDeterminate)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  AnalyzeRequest
	}{
		{"missing source", AnalyzeRequest{}},
		{"runs over cap", AnalyzeRequest{Source: quickSrc, Runs: maxRuns + 1}},
		{"negative timeout", AnalyzeRequest{Source: quickSrc, TimeoutMS: -1}},
		{"negative flushes", AnalyzeRequest{Source: quickSrc, MaxFlushes: -1}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/analyze", tc.req)
		body := decodeError(t, resp)
		if resp.StatusCode != http.StatusBadRequest || body.Kind != "bad-request" {
			t.Errorf("%s: status=%d kind=%q, want 400 bad-request", tc.name, resp.StatusCode, body.Kind)
		}
	}

	// Malformed JSON is a bad request too, not a 500.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(`{"source": `))
	if err != nil {
		t.Fatal(err)
	}
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Kind != "bad-request" {
		t.Errorf("malformed JSON: status=%d kind=%q, want 400 bad-request", resp.StatusCode, body.Kind)
	}

	// Wrong method never reaches a handler.
	getResp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze status = %d, want 405", getResp.StatusCode)
	}
}

func TestAnalyzeParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: `var = ;`})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Kind != "parse" {
		t.Fatalf("status=%d kind=%q, want 400 parse", resp.StatusCode, body.Kind)
	}
}

func TestAnalyzeParseDepthGuard(t *testing.T) {
	// A maximally nested body within the size limit must be rejected by
	// the parser's depth guard, not blow the stack.
	_, ts := newTestServer(t, Config{})
	src := strings.Repeat("(", 600) + "1" + strings.Repeat(")", 600) + ";"
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: "var x = " + src})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Kind != "parse-depth" {
		t.Fatalf("status=%d kind=%q, want 400 parse-depth", resp.StatusCode, body.Kind)
	}
}

func TestAnalyzeUncaughtException(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: `throw 1;`})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity || body.Kind != "uncaught-exception" {
		t.Fatalf("status=%d kind=%q, want 422 uncaught-exception", resp.StatusCode, body.Kind)
	}
}

func TestAnalyzeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: strings.Repeat("var x = 1; ", 100)})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || body.Kind != "body-too-large" {
		t.Fatalf("status=%d kind=%q, want 413 body-too-large", resp.StatusCode, body.Kind)
	}
}

func TestAnalyzeTimeoutCeilingSealsPartial(t *testing.T) {
	// The client asks for a 60s budget; the server ceiling is 25ms. The
	// run must stop at the ceiling and answer 200 with a sound partial.
	_, ts := newTestServer(t, Config{DefaultTimeout: 25 * time.Millisecond, MaxTimeout: 25 * time.Millisecond})
	long := strings.Replace(slowSrc, "i < 3000", "i < 2000000", 1)
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: long, TimeoutMS: 60000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeAnalyze(t, resp)
	if !out.Partial {
		t.Fatal("run under a 25ms ceiling completed 2M iterations; expected partial")
	}
	if out.DegradeReason != "deadline" {
		t.Fatalf("degrade_reason = %q, want deadline", out.DegradeReason)
	}
	if out.NumDeterminate > out.NumFacts {
		t.Fatalf("partial store incoherent: %d determinate of %d facts", out.NumDeterminate, out.NumFacts)
	}
}

func TestAnalyzeMultiRunMerge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc, Runs: 3, Seed: 7, DetOnly: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeAnalyze(t, resp)
	for _, f := range out.Facts {
		if !f.Determinate {
			t.Fatalf("det_only response contains indeterminate fact %+v", f)
		}
	}
}

func TestAnalyzeMultiRunDeadlineInterrupts(t *testing.T) {
	// A multi-seed merge whose deadline passes skips the seeds that have
	// not started; a skipped seed has no partial store to merge, so the
	// request answers 503 interrupted rather than a partial 200.
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: slowSrc, Runs: 3, TimeoutMS: 1})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || body.Kind != "interrupted" {
		t.Fatalf("status=%d kind=%q, want 503 interrupted", resp.StatusCode, body.Kind)
	}
	if resp.Header.Get("Retry-After") == "" || body.RetryAfterMS <= 0 {
		t.Errorf("503 Retry-After=%q retry_after_ms=%d, want both set", resp.Header.Get("Retry-After"), body.RetryAfterMS)
	}
}

func TestShedUnderOverload(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1})
	const n = 8
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: slowSrc, Seed: uint64(i)})
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			if resp.StatusCode == http.StatusTooManyRequests {
				body := decodeError(t, resp)
				if body.Kind != "shed" {
					t.Errorf("429 kind = %q, want shed", body.Kind)
				}
				if body.RetryAfterMS <= 0 {
					t.Errorf("429 retry_after_ms = %d, want > 0", body.RetryAfterMS)
				}
			} else {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, c)
		}
	}
	if ok == 0 {
		t.Error("overload shed every request; at least one should have been served")
	}
	if shed == 0 {
		t.Errorf("8 concurrent requests against 1 slot + 1 queue place never shed (codes %v)", codes)
	}
}

// TestRetryAfterWriter pins the one error writer's Retry-After forms: a
// shed carries the scheduler's own guidance, rounded up (header in whole
// seconds, retry_after_ms in whole milliseconds, each at least 1, so a
// sub-millisecond hint still sends the field), and any other 429/503
// carries the pool-derived estimate, 1 s before a job has run.
func TestRetryAfterWriter(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		err    error
		status int
		header string
		ms     int64
	}{
		{&sched.ShedError{Reason: sched.ReasonDeadline, RetryAfter: 500 * time.Microsecond}, 429, "1", 1},
		{&sched.ShedError{Reason: sched.ReasonDeadline, RetryAfter: 1499 * time.Millisecond}, 429, "2", 1499},
		{&sched.ShedError{Reason: sched.ReasonDeadline, RetryAfter: 2500 * time.Millisecond}, 429, "3", 2500},
		{sched.ErrDraining, 503, "1", 1000},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeAdmissionError(rec, nil, tc.err)
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: %v", tc.err, err)
		}
		if rec.Code != tc.status || rec.Header().Get("Retry-After") != tc.header || body.Error.RetryAfterMS != tc.ms {
			t.Errorf("%v: status %d Retry-After %q retry_after_ms %d, want %d %q %d",
				tc.err, rec.Code, rec.Header().Get("Retry-After"), body.Error.RetryAfterMS, tc.status, tc.header, tc.ms)
		}
	}
}

func TestBatchMixedOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BatchRequest{Programs: []BatchProgram{
		{Name: "ok.js", Source: quickSrc},
		{Source: `var = broken`},
		{Name: "boom.js", Source: `throw "x";`},
	}}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 with per-entry outcomes", resp.StatusCode)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Results) != 3 || out.Completed != 1 || out.Failed != 2 {
		t.Fatalf("completed=%d failed=%d len=%d, want 1/2/3", out.Completed, out.Failed, len(out.Results))
	}
	for i, r := range out.Results {
		if (r.Result == nil) == (r.Error == nil) {
			t.Errorf("entry %d: want exactly one of result/error, got %+v", i, r)
		}
	}
	if out.Results[0].Name != "ok.js" || out.Results[0].Result == nil {
		t.Errorf("entry 0 = %+v, want ok.js success", out.Results[0])
	}
	if out.Results[1].Name != "program-1.js" || out.Results[1].Error == nil || out.Results[1].Error.Kind != "parse" {
		t.Errorf("entry 1 = %+v, want program-1.js parse error", out.Results[1])
	}
	if out.Results[2].Error == nil || out.Results[2].Error.Kind != "uncaught-exception" {
		t.Errorf("entry 2 = %+v, want uncaught-exception", out.Results[2])
	}
}

func TestBatchValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Kind != "bad-request" {
		t.Errorf("empty batch: status=%d kind=%q", resp.StatusCode, body.Kind)
	}
	progs := make([]BatchProgram, maxBatchPrograms+1)
	for i := range progs {
		progs[i] = BatchProgram{Source: quickSrc}
	}
	resp = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Programs: progs})
	body = decodeError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Kind != "bad-request" {
		t.Errorf("oversized batch: status=%d kind=%q", resp.StatusCode, body.Kind)
	}
	// The cap is checked before admission: nothing was compiled.
	if n := s.metrics.Counter("progcache_misses_total").Value(); n != 0 {
		t.Errorf("oversized batch reached the compile cache: %d misses", n)
	}
}

func TestBreakerTripsReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer faultinject.Disarm()

	ready := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if ready() != http.StatusOK {
		t.Fatal("fresh server not ready")
	}

	// breakerThreshold consecutive injected panics mid-analysis trip the
	// breaker; one fewer leaves readiness alone.
	for i := 0; i < breakerThreshold; i++ {
		if i == breakerThreshold-1 && ready() != http.StatusOK {
			t.Fatalf("breaker tripped after %d quarantines, want %d", i, breakerThreshold)
		}
		faultinject.Arm(&faultinject.Plan{Site: faultinject.SiteServerRequest, After: 1, Action: faultinject.Panic})
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
		body := decodeError(t, resp)
		if resp.StatusCode != http.StatusInternalServerError || body.Kind != "panic" {
			t.Fatalf("injected panic %d: status=%d kind=%q, want 500 panic", i, resp.StatusCode, body.Kind)
		}
		faultinject.Disarm()
	}
	if ready() != http.StatusServiceUnavailable {
		t.Fatal("breaker did not trip readiness after consecutive quarantines")
	}
	if !s.breakerOpen.Load() {
		t.Fatal("breakerOpen flag not set")
	}

	// Liveness is unaffected; only readiness flips.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while breaker open, want 200", resp.StatusCode)
	}

	// One successful analysis closes the breaker.
	okResp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	okResp.Body.Close()
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("clean request after breaker = %d, want 200", okResp.StatusCode)
	}
	if ready() != http.StatusOK {
		t.Fatal("breaker did not close after a successful analysis")
	}
}

func TestAdmitPanicRecoveredByMiddleware(t *testing.T) {
	// A fault outside the per-request guard boundary must be caught by the
	// HTTP-layer recovery middleware, answer a structured 500, and leave
	// the process serving.
	_, ts := newTestServer(t, Config{})
	defer faultinject.Disarm()
	faultinject.Arm(&faultinject.Plan{Site: faultinject.SiteServerAdmit, After: 1, Action: faultinject.Panic})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	body := decodeError(t, resp)
	if resp.StatusCode != http.StatusInternalServerError || body.Kind != "panic" {
		t.Fatalf("status=%d kind=%q, want 500 panic", resp.StatusCode, body.Kind)
	}
	faultinject.Disarm()

	after := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	after.Body.Close()
	if after.StatusCode != http.StatusOK {
		t.Fatalf("server dead after recovered panic: status %d", after.StatusCode)
	}
}

func TestHealthzEchoesVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		UptimeMS int64  `json:"uptime_ms"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Version != version.String() || out.Draining {
		t.Fatalf("healthz = %+v", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, series := range []string{
		"server_requests_total",
		"server_max_inflight",
		"server_inflight",
		"server_queue_depth",
		"server_uptime_seconds",
		`server_responses_total{code="200"}`,
		"server_request_seconds",
		"progcache_misses_total",
	} {
		if !strings.Contains(dump, series) {
			t.Errorf("metrics dump missing %s", series)
		}
	}
}

func TestResponsesCountedByCode(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc}).Body.Close()
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: `var = ;`}).Body.Close()
	if got := s.Metrics().Counter(fmt.Sprintf(`server_responses_total{code="%d"}`, 200)).Value(); got != 1 {
		t.Errorf(`responses{200} = %d, want 1`, got)
	}
	if got := s.Metrics().Counter(fmt.Sprintf(`server_responses_total{code="%d"}`, 400)).Value(); got != 1 {
		t.Errorf(`responses{400} = %d, want 1`, got)
	}
}

func TestCompileCacheSharedAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Name: "same.js", Source: quickSrc, Seed: uint64(i)}).Body.Close()
	}
	hits := s.Metrics().Counter("progcache_hits_total").Value()
	if hits < 2 {
		t.Fatalf("progcache hits after 3 identical requests = %d, want >= 2", hits)
	}
}
