// Satellite tests for streaming keepalives, client-disconnect hygiene,
// and drain-state reporting on the health surface.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"determinacy/internal/server/sched"
)

// longSrc runs for seconds unless force-cancelled — long enough that a
// heartbeat interval or a disconnect is observable mid-run.
var longSrc = strings.Replace(slowSrc, "i < 3000", "i < 50000000", 1)

func TestStreamHeartbeatNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamHeartbeat: 10 * time.Millisecond})
	recs := streamLines(t, ts.URL+"/v1/analyze?stream=1", AnalyzeRequest{Source: slowSrc})
	beats := 0
	for i, rec := range recs {
		if rec["type"] == "heartbeat" {
			beats++
			if i == len(recs)-1 {
				t.Fatal("heartbeat written after the terminal result line")
			}
		}
	}
	if beats == 0 {
		t.Fatalf("no heartbeat lines in a ~100ms stream at a 10ms interval (%d records)", len(recs))
	}
	last := recs[len(recs)-1]
	if last["type"] != "result" || last["result"] == nil {
		t.Fatalf("terminal record: %v", last)
	}
}

func TestStreamHeartbeatSSEComment(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamHeartbeat: 10 * time.Millisecond})
	raw, _ := json.Marshal(AnalyzeRequest{Source: slowSrc})
	resp, err := http.Post(ts.URL+"/v1/analyze?stream=sse", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	beats, data := 0, 0
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == ": keepalive":
			beats++
		case strings.HasPrefix(line, "data: "):
			data++
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if beats == 0 {
		t.Fatal("no SSE keepalive comments in a ~100ms stream at a 10ms interval")
	}
	if data == 0 {
		t.Fatal("keepalives but no data records")
	}
}

func TestStreamHeartbeatDisabled(t *testing.T) {
	// Negative = explicitly disabled (the flag's 0 maps here).
	_, ts := newTestServer(t, Config{StreamHeartbeat: -1})
	recs := streamLines(t, ts.URL+"/v1/analyze?stream=1", AnalyzeRequest{Source: slowSrc})
	for _, rec := range recs {
		if rec["type"] == "heartbeat" {
			t.Fatal("heartbeat emitted with StreamHeartbeat disabled")
		}
	}
}

// TestStreamClientDisconnectCancelsRun is the disconnect-hygiene
// regression test: a streaming client that goes away mid-run must cancel
// the analysis at the next guard checkpoint, freeing the slot and leaking
// no goroutines — not burn the slot to completion for nobody.
func TestStreamClientDisconnectCancelsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{MaxInFlight: 1, StreamHeartbeat: 5 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	raw, _ := json.Marshal(AnalyzeRequest{Source: longSrc})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze?stream=1", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line so the run is provably started, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read first stream line: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && s.metrics.Gauge("server_inflight").Value() != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if v := s.metrics.Gauge("server_inflight").Value(); v != 0 {
		t.Fatalf("server_inflight = %v after client disconnect, want 0 (run not cancelled)", v)
	}
	// The freed slot serves the next request promptly.
	probe := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	if probe.StatusCode != http.StatusOK {
		t.Fatalf("probe after disconnect: status %d, want 200", probe.StatusCode)
	}
	probe.Body.Close()
	if n, ok := settleGoroutines(base, 6); !ok {
		t.Fatalf("goroutines grew from %d to %d after disconnected stream", base, n)
	}
}

// TestHealthzReportsDrainState covers the drain-visibility satellite:
// /healthz stays 200 through a drain but flips "draining" and counts the
// remaining in-flight runs; /debug/statusz carries the scheduler snapshot.
func TestHealthzReportsDrainState(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, StreamHeartbeat: -1, DrainTimeout: 200 * time.Millisecond})

	health := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if h := health(); h["draining"] != false || h["inflight"] != float64(0) {
		t.Fatalf("idle healthz: draining=%v inflight=%v, want false/0", h["draining"], h["inflight"])
	}

	// Occupy the slot, then drain with the run still in flight.
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := postJSONTenant(t, context.Background(), ts.URL+"/v1/analyze", "",
			AnalyzeRequest{Source: longSrc, TimeoutMS: 30_000}, nil)
		if err != nil {
			done <- nil
			return
		}
		done <- resp
	}()
	waitInFlight(t, s, 1)
	s.BeginDrain()

	if h := health(); h["draining"] != true || h["inflight"] != float64(1) {
		t.Fatalf("draining healthz: draining=%v inflight=%v, want true/1", h["draining"], h["inflight"])
	}
	var page struct {
		Server    map[string]any `json:"server"`
		Scheduler sched.Snapshot `json:"scheduler"`
	}
	resp, err := http.Get(ts.URL + "/debug/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if page.Server["draining"] != true {
		t.Fatalf("statusz server.draining = %v, want true", page.Server["draining"])
	}
	if page.Scheduler.InFlight != 1 {
		t.Fatalf("statusz scheduler snapshot = %+v, want 1 in flight", page.Scheduler)
	}

	// Finish the drain; the run seals sound-partial and healthz empties.
	if clean := s.Drain(); clean {
		t.Log("drain finished clean (run completed inside the budget)")
	}
	if r := <-done; r != nil {
		if r.StatusCode != http.StatusOK {
			t.Fatalf("drained run status = %d, want 200 sound partial", r.StatusCode)
		}
		out := decodeAnalyze(t, r)
		if !out.Partial {
			t.Error("force-sealed run did not report partial")
		}
	}
	if h := health(); h["draining"] != true || h["inflight"] != float64(0) {
		t.Fatalf("post-drain healthz: draining=%v inflight=%v, want true/0", h["draining"], h["inflight"])
	}
}
