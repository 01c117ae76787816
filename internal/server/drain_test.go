package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// waitInFlight polls the in-flight gauge until n requests hold slots.
func waitInFlight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if int(s.Metrics().Gauge("server_inflight").Value()) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no request reached in-flight state within 5s")
}

func TestDrainCleanWhenIdle(t *testing.T) {
	s, _ := newTestServer(t, Config{DrainTimeout: time.Second})
	if !s.Drain() {
		t.Fatal("idle server did not drain within budget")
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

func TestBeginDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}

	aresp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
	body := decodeError(t, aresp)
	if aresp.StatusCode != http.StatusServiceUnavailable || body.Kind != "draining" {
		t.Fatalf("analyze while draining: status=%d kind=%q, want 503 draining", aresp.StatusCode, body.Kind)
	}
	if aresp.Header.Get("Retry-After") == "" {
		t.Error("503 draining without a Retry-After header")
	}

	// Liveness stays green so orchestrators don't kill the pod mid-drain.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", hresp.StatusCode)
	}
}

func TestDrainWaitsForInFlightWithinBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{DrainTimeout: 10 * time.Second})
	done := make(chan AnalyzeResponse, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: slowSrc})
		done <- decodeAnalyze(t, resp)
	}()
	waitInFlight(t, s, 1)

	// The ~100ms run fits comfortably in a 10s budget: clean drain.
	if !s.Drain() {
		t.Fatal("drain force-cancelled a run that should have finished in budget")
	}
	out := <-done
	if out.Partial {
		t.Fatalf("in-budget drain degraded the run: %s", out.DegradeReason)
	}
}

func TestDrainForceCancelSealsPartial(t *testing.T) {
	// A run that would take minutes gets force-cancelled when the drain
	// budget expires — and must still answer 200 with sound partial facts.
	s, ts := newTestServer(t, Config{MaxTimeout: 5 * time.Minute, DefaultTimeout: 5 * time.Minute, DrainTimeout: 50 * time.Millisecond})
	long := strings.Replace(slowSrc, "i < 3000", "i < 50000000", 1)
	done := make(chan AnalyzeResponse, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: long})
		done <- decodeAnalyze(t, resp)
	}()
	waitInFlight(t, s, 1)

	if s.Drain() {
		t.Fatal("Drain reported clean finish for a 50M-iteration run in 50ms")
	}
	select {
	case out := <-done:
		if !out.Partial {
			t.Fatal("force-cancelled run reported complete")
		}
		if out.DegradeReason != "cancel" && out.DegradeReason != "deadline" {
			t.Fatalf("degrade_reason = %q, want cancel or deadline", out.DegradeReason)
		}
		if out.NumDeterminate > out.NumFacts {
			t.Fatalf("partial store incoherent: %d determinate of %d facts", out.NumDeterminate, out.NumFacts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("force-cancelled request never responded: drain leak")
	}
}

func TestDrainReleasesQueuedWaiters(t *testing.T) {
	// Requests waiting in the admission queue when drain begins must get a
	// 503, not hang until their client gives up.
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 4, MaxTimeout: 5 * time.Minute, DefaultTimeout: 5 * time.Minute, DrainTimeout: 50 * time.Millisecond})
	long := strings.Replace(slowSrc, "i < 3000", "i < 50000000", 1)

	holder := make(chan AnalyzeResponse, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: long})
		holder <- decodeAnalyze(t, resp)
	}()
	waitInFlight(t, s, 1)

	queued := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: quickSrc})
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	// Wait for the second request to join the queue before draining.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.Metrics().Gauge("server_queue_depth").Value() < 1 {
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	select {
	case code := <-queued:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("queued waiter got %d at drain, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter hung through BeginDrain")
	}

	if s.Drain() {
		t.Fatal("Drain reported clean while the long run was still in flight")
	}
	select {
	case out := <-holder:
		if !out.Partial {
			t.Fatal("force-cancelled holder reported complete")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("holding request never responded after force-cancel")
	}
}
