package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"determinacy/internal/obs"
)

// streamLines POSTs an analyze request with ?stream=<mode> and returns the
// decoded JSON records in arrival order (SSE framing is stripped).
func streamLines(t *testing.T, url string, body any) []map[string]any {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []map[string]any
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimPrefix(line, "data: ")
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan stream: %v", err)
	}
	return out
}

func TestStreamAnalyzeEventsBeforeResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	recs := streamLines(t, ts.URL+"/v1/analyze?stream=1", AnalyzeRequest{Source: slowSrc})
	if len(recs) < 2 {
		t.Fatalf("stream returned %d records, want events + result", len(recs))
	}
	// Every record but the last is an event; the last is the result.
	events := 0
	for _, rec := range recs[:len(recs)-1] {
		if rec["type"] != "event" {
			t.Fatalf("mid-stream record of type %v: %v", rec["type"], rec)
		}
		events++
	}
	if events == 0 {
		t.Fatal("no trace events before the sealed result")
	}
	last := recs[len(recs)-1]
	if last["type"] != "result" || last["result"] == nil || last["error"] != nil {
		t.Fatalf("terminal record: %v", last)
	}
	res := last["result"].(map[string]any)
	if res["num_facts"] == nil || res["num_facts"].(float64) == 0 {
		t.Fatalf("streamed result has no facts: %v", res)
	}
	// Phase events arrived live: at least one phase-begin among the events.
	sawPhase := false
	for _, rec := range recs[:len(recs)-1] {
		if rec["ev"] == "phase-begin" {
			sawPhase = true
			break
		}
	}
	if !sawPhase {
		t.Fatal("no phase-begin event in the stream")
	}
}

func TestStreamSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, _ := json.Marshal(AnalyzeRequest{Source: quickSrc})
	resp, err := http.Post(ts.URL+"/v1/analyze?stream=sse", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	dataLines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
			t.Fatalf("SSE data not JSON: %v", err)
		}
		dataLines++
	}
	if dataLines < 2 {
		t.Fatalf("SSE stream carried %d records, want events + result", dataLines)
	}
}

func TestStreamAnalyzeErrorTerminal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	recs := streamLines(t, ts.URL+"/v1/analyze?stream=1", AnalyzeRequest{Source: "var nope = ;"})
	last := recs[len(recs)-1]
	if last["type"] != "result" || last["result"] != nil {
		t.Fatalf("terminal record: %v", last)
	}
	errBody, ok := last["error"].(map[string]any)
	if !ok || errBody["kind"] != "parse" {
		t.Fatalf("stream error payload: %v", last["error"])
	}

	// The failure is a terminal flight-recorder outcome too.
	page := getStatusz(t, ts.URL)
	if len(page.Entries) == 0 || page.Entries[0].Outcome != "error" || page.Entries[0].ErrorKind != "parse" {
		t.Fatalf("streamed parse failure entry: %+v", page.Entries)
	}
}

func TestStreamEventCapDropsNotStalls(t *testing.T) {
	// slowSrc emits tens of thousands of events, well past the cap.
	_, ts := newTestServer(t, Config{})
	recs := streamLines(t, ts.URL+"/v1/analyze?stream=1", AnalyzeRequest{Source: slowSrc})
	last := recs[len(recs)-1]
	if last["type"] != "result" || last["result"] == nil {
		t.Fatalf("terminal record: %v", last)
	}
	if len(recs)-1 > obs.DefaultTraceEventCap {
		t.Fatalf("stream wrote %d events past the cap of %d", len(recs)-1, obs.DefaultTraceEventCap)
	}
	if last["dropped_events"] == nil || last["dropped_events"].(float64) == 0 {
		t.Fatal("capped stream did not report dropped events")
	}
}

func TestStreamNoGoroutineLeak(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		streamLines(t, ts.URL+"/v1/analyze?stream=1", AnalyzeRequest{Source: quickSrc})
	}
	if n, ok := settleGoroutines(base, 4); !ok {
		t.Fatalf("goroutines grew from %d to %d after streaming sessions", base, n)
	}
}
