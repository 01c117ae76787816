package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
)

// statuszPage mirrors the /debug/statusz JSON wire shape.
type statuszPage struct {
	Server  map[string]any    `json:"server"`
	Entries []obs.FlightEntry `json:"entries"`
}

func getStatusz(t *testing.T, base string) statuszPage {
	t.Helper()
	resp, err := http.Get(base + "/debug/statusz")
	if err != nil {
		t.Fatalf("GET /debug/statusz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status = %d", resp.StatusCode)
	}
	var page statuszPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	return page
}

func findEntry(t *testing.T, page statuszPage, id string) obs.FlightEntry {
	t.Helper()
	for _, e := range page.Entries {
		if e.TraceID == id {
			return e
		}
	}
	t.Fatalf("trace %s not in statusz (%d entries)", id, len(page.Entries))
	return obs.FlightEntry{}
}

func TestTraceIDEchoAndMint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A well-formed client ID is echoed verbatim.
	b := strings.NewReader(`{"source":"var x = 1;"}`)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", b)
	req.Header.Set("X-Request-ID", "client-id_1.test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id_1.test" {
		t.Fatalf("echoed ID = %q", got)
	}

	// A hostile ID (label-breaking characters) is replaced with a minted
	// one; a missing ID is minted too, and mints are unique.
	mint := func(clientID string) string {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(`{"source":"var x = 1;"}`))
		if clientID != "" {
			req.Header.Set("X-Request-ID", clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	hostile := mint("evil\"} inject{x=\"1")
	if hostile == "" || strings.ContainsAny(hostile, `"{}`) {
		t.Fatalf("hostile ID not replaced: %q", hostile)
	}
	a, b2 := mint(""), mint("")
	if a == "" || a == b2 {
		t.Fatalf("minted IDs not unique: %q vs %q", a, b2)
	}
}

func TestStatuszRecordsOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	do := func(id string, body any) *http.Response {
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(string(raw)))
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	do("req-ok", AnalyzeRequest{Source: quickSrc})
	do("req-hit", AnalyzeRequest{Source: quickSrc}) // same source: cache hit
	do("req-partial", AnalyzeRequest{Source: slowSrc, MaxSteps: 100})
	do("req-parse", AnalyzeRequest{Source: "var nope = ;"})

	page := getStatusz(t, ts.URL)

	ok := findEntry(t, page, "req-ok")
	if ok.Outcome != "ok" || ok.Status != 200 || ok.Route != routeAnalyze {
		t.Fatalf("req-ok entry: %+v", ok)
	}
	if ok.Steps == 0 || ok.Facts == 0 {
		t.Fatalf("req-ok entry missing stats: %+v", ok)
	}
	if len(ok.Phases) == 0 {
		t.Fatalf("req-ok entry has no phase spans: %+v", ok)
	}
	if ok.Events == 0 {
		t.Fatalf("req-ok entry has no trace events: %+v", ok)
	}

	hit := findEntry(t, page, "req-hit")
	if !hit.CacheHit {
		t.Fatalf("req-hit not marked cache-hit: %+v", hit)
	}
	if ok.CacheHit {
		t.Fatalf("req-ok (first compile) marked cache-hit: %+v", ok)
	}

	partial := findEntry(t, page, "req-partial")
	if partial.Outcome != "sound-partial" || partial.DegradeReason == "" {
		t.Fatalf("req-partial entry: %+v", partial)
	}

	parse := findEntry(t, page, "req-parse")
	if parse.Outcome != "error" || parse.ErrorKind != "parse" || parse.Status != 400 {
		t.Fatalf("req-parse entry: %+v", parse)
	}

	// Phase latencies derived from the spans land in the phase histograms.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mraw), `server_phase_seconds_bucket{phase="exec"`) {
		t.Fatal("no server_phase_seconds{phase=\"exec\"} series on /metrics")
	}
}

// TestMultiRunRequestRecordsCacheHit pins that a runs > 1 request compiles
// through the server's compile cache like a single run: a repeated
// `runs: 2` request records cache_hit in its flight entry, and its trace
// carries the progcache hit event.
func TestMultiRunRequestRecordsCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, id := range []string{"runs-first", "runs-again"} {
		raw, _ := json.Marshal(AnalyzeRequest{Source: quickSrc, Runs: 2})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(string(raw)))
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", id, resp.StatusCode)
		}
	}
	page := getStatusz(t, ts.URL)
	if first := findEntry(t, page, "runs-first"); first.CacheHit {
		t.Fatalf("first runs:2 request (first compile) marked cache-hit: %+v", first)
	}
	if again := findEntry(t, page, "runs-again"); !again.CacheHit {
		t.Fatalf("repeated runs:2 request not marked cache-hit: %+v", again)
	}
	resp, err := http.Get(ts.URL + "/debug/tracez?id=runs-again")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"phase":"progcache","detail":"hit"`) {
		t.Fatalf("repeated runs:2 trace has no progcache hit event:\n%s", body)
	}
}

func TestStatuszTextFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	id := resp.Header.Get("X-Request-ID")
	resp.Body.Close()

	tresp, err := http.Get(ts.URL + "/debug/statusz?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if ct := tresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, _ := io.ReadAll(tresp.Body)
	text := string(raw)
	for _, want := range []string{"TRACE_ID", "ROUTE", "OUTCOME", id, routeAnalyze} {
		if !strings.Contains(text, want) {
			t.Fatalf("text statusz missing %q:\n%s", want, text)
		}
	}
}

func TestTracezDumpFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	id := resp.Header.Get("X-Request-ID")
	resp.Body.Close()

	// Missing and unknown IDs are typed errors.
	r400, _ := http.Get(ts.URL + "/debug/tracez")
	if r400.StatusCode != http.StatusBadRequest {
		t.Fatalf("tracez without id = %d", r400.StatusCode)
	}
	r400.Body.Close()
	r404, _ := http.Get(ts.URL + "/debug/tracez?id=no-such-trace")
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("tracez unknown id = %d", r404.StatusCode)
	}
	r404.Body.Close()

	// JSONL: a summary line then the event stream.
	jresp, err := http.Get(ts.URL + "/debug/tracez?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	sc := bufio.NewScanner(jresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []map[string]any
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) < 3 {
		t.Fatalf("tracez returned %d lines, want summary + events", len(lines))
	}
	if lines[0]["type"] != "summary" {
		t.Fatalf("first line = %v", lines[0])
	}
	sawPhase := false
	for _, rec := range lines[1:] {
		if rec["ev"] == "phase-begin" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Fatal("no phase-begin events in tracez dump")
	}

	// Chrome format: a trace_event document.
	cresp, err := http.Get(ts.URL + "/debug/tracez?id=" + id + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome dump not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome dump has no trace events")
	}
}

// TestQuarantinedRequestRecorded is the regression test for the
// flight-recorder fix: a request whose analysis panics must still land in
// the recorder, classified quarantined, carrying the *RunError location —
// whether the panic is converted inside the run boundary (SiteCoreStep)
// or escapes the handler entirely (SiteServerAdmit).
func TestQuarantinedRequestRecorded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer faultinject.Disarm()

	do := func(id, site, src string) {
		t.Helper()
		faultinject.Arm(&faultinject.Plan{Site: site, After: 1, Action: faultinject.Panic})
		raw, _ := json.Marshal(AnalyzeRequest{Source: src})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(string(raw)))
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := decodeError(t, resp)
		faultinject.Disarm()
		if resp.StatusCode != http.StatusInternalServerError || body.Kind != "panic" {
			t.Fatalf("%s: status=%d kind=%q, want 500 panic", id, resp.StatusCode, body.Kind)
		}
	}

	// slowSrc runs long enough to reach a core.step checkpoint; the admit
	// fault fires before the analysis even starts.
	do("q-core", faultinject.SiteCoreStep, slowSrc)      // panic inside the run boundary
	do("q-admit", faultinject.SiteServerAdmit, quickSrc) // panic escapes the handler

	page := getStatusz(t, ts.URL)
	core := findEntry(t, page, "q-core")
	if core.Outcome != "quarantined" || core.Status != 500 || core.ErrorKind != "panic" {
		t.Fatalf("q-core entry: %+v", core)
	}
	if core.ErrPhase == "" {
		t.Fatalf("q-core entry lost its RunError phase: %+v", core)
	}
	admit := findEntry(t, page, "q-admit")
	if admit.Outcome != "quarantined" || admit.Status != 500 || admit.ErrorKind != "panic" {
		t.Fatalf("q-admit entry: %+v", admit)
	}
	if admit.ErrPhase == "" {
		t.Fatalf("q-admit entry lost its RunError phase: %+v", admit)
	}
}

func TestBatchOutcomeClassification(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	do := func(id string, body BatchRequest) {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/batch", strings.NewReader(string(raw)))
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	do("b-ok", BatchRequest{Programs: []BatchProgram{{Source: quickSrc}, {Source: quickSrc}}})
	do("b-mixed", BatchRequest{Programs: []BatchProgram{{Source: quickSrc}, {Source: "var nope = ;"}}})

	page := getStatusz(t, ts.URL)
	ok := findEntry(t, page, "b-ok")
	if ok.Outcome != "ok" || ok.Route != routeBatch || !ok.CacheHit {
		// b-ok's two identical programs: the second compile is a hit, but
		// the first is a miss, so CacheHit (all-hit) must be false unless
		// an earlier test warmed program.js — assert route/outcome only.
		if ok.Outcome != "ok" || ok.Route != routeBatch {
			t.Fatalf("b-ok entry: %+v", ok)
		}
	}
	mixed := findEntry(t, page, "b-mixed")
	if mixed.Outcome != "sound-partial" {
		t.Fatalf("b-mixed entry: %+v", mixed)
	}
}

// TestServerNilTracerZeroAlloc re-asserts the zero-alloc nil-tracer
// guarantee with the per-request plumbing in place: with tracing disabled
// the middleware must hand the analysis a true nil Tracer interface (a
// typed nil would defeat every emission-site guard), and the hot path
// must not allocate.
func TestServerNilTracerZeroAlloc(t *testing.T) {
	rt := &reqTrace{id: "z"} // DisableTracing: no RequestTrace attached
	if tr := rt.obsTracer(); tr != nil {
		t.Fatalf("obsTracer() with tracing disabled = %T, want nil interface", tr)
	}
	if tr := obs.Multi(rt.obsTracer()); tr != nil {
		t.Fatalf("Multi(nil request tracer) = %T, want nil interface", tr)
	}

	mod := ir.MustCompile("p.js", "var x = 1;")
	a := core.New(mod, facts.NewStore(), core.Options{Out: io.Discard, Tracer: rt.obsTracer()})
	a.FlushHeap("warmup")
	allocs := testing.AllocsPerRun(200, func() {
		a.FlushHeap("warmup")
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer FlushHeap allocates %v times per op, want 0", allocs)
	}
}

func TestDisableTracingStillRecordsSummaries(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableTracing: true})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	id := resp.Header.Get("X-Request-ID")
	resp.Body.Close()

	page := getStatusz(t, ts.URL)
	e := findEntry(t, page, id)
	if e.Outcome != "ok" || e.Events != 0 || len(e.Phases) != 0 {
		t.Fatalf("untraced entry: %+v", e)
	}
	// tracez has no retained events to serve.
	tresp, _ := http.Get(ts.URL + "/debug/tracez?id=" + id)
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("tracez with tracing disabled = %d, want 404", tresp.StatusCode)
	}
	tresp.Body.Close()
}
