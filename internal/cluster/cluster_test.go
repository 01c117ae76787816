package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"determinacy/internal/obs"
)

func mustTopology(t *testing.T, self string, peers map[string]string) Topology {
	t.Helper()
	top := Topology{Self: self, Peers: peers}
	b, err := topologyJSON(top)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTopology(b)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

func topologyJSON(t Topology) ([]byte, error) {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf(`{"self":%q,"peers":{`, t.Self))
	first := true
	for name, u := range t.Peers {
		if !first {
			sb.WriteString(",")
		}
		first = false
		sb.WriteString(fmt.Sprintf("%q:%q", name, u))
	}
	sb.WriteString("}}")
	return []byte(sb.String()), nil
}

// testRouter builds a Router with the prober disabled and fast timeouts.
func testRouter(t *testing.T, self string, peers map[string]string, tweak func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Topology:        mustTopology(t, self, peers),
		Metrics:         obs.NewMetrics(),
		ProbeInterval:   -1,
		ForwardTimeout:  2 * time.Second,
		BreakerCooldown: 50 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestParseTopologyValidation(t *testing.T) {
	bad := []string{
		`{`,
		`{}`,
		`{"self":"a"}`,
		`{"self":"a","peers":{}}`,
		`{"self":"a","peers":{"b":"http://x:1"}}`,                       // self missing from peers
		`{"self":"a","peers":{"a":"ftp://x:1"}}`,                        // bad scheme
		`{"self":"a","peers":{"a":"http://"}}`,                          // no host
		`{"self":"a","peers":{"a":"http://x:1","bad name":"http://y"}}`, // name charset
		`{"self":"a","peers":{"a":"http://x:1"},"vnodes":-1}`,
		`{"self":"a","peers":{"a":"http://x:1"},"extra":1}`, // unknown field
		`{"self":"a b","peers":{"a b":"http://x:1"}}`,
		`{"self":"a","peers":{"a":"http://x:1"}} trailing`,     // trailing data
		`{"self":"a","peers":{"a":"http://x:1"}} {"self":"b"}`, // second object
	}
	for _, s := range bad {
		if _, err := ParseTopology([]byte(s)); err == nil {
			t.Errorf("ParseTopology(%s): expected error", s)
		}
	}
	good := `{"self":"a","vnodes":8,"peers":{"a":"http://x:1","b-2":"https://y.example:8420"}}` + "\n"
	top, err := ParseTopology([]byte(good))
	if err != nil {
		t.Fatalf("ParseTopology(%s): %v", good, err)
	}
	if !top.Enabled() || top.VNodes != 8 || len(top.Peers) != 2 {
		t.Fatalf("unexpected topology: %+v", top)
	}
	if _, err := ParseTopologyFlag(""); err != nil {
		t.Fatalf("empty flag should be a valid no-cluster: %v", err)
	}
	if _, err := ParseTopologyFlag("@/no/such/peers.json"); err == nil {
		t.Fatal("missing @file should error")
	}
}

// TestRingDeterminismAndCoverage pins that every node computes the same
// owner for every key, and that ownership spreads across all peers.
func TestRingDeterminismAndCoverage(t *testing.T) {
	names := []string{"a", "b", "c"}
	r1 := newRing(names, 64)
	r2 := newRing([]string{"c", "a", "b"}, 64) // order must not matter post-sort
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := HashKey(fmt.Sprintf("var x = %d;", i))
		o1, o2 := r1.owner(key), r2.owner(key)
		if o1 != o2 {
			t.Fatalf("ring disagreement for key %s: %s vs %s", key, o1, o2)
		}
		counts[o1]++
	}
	for _, name := range names {
		if counts[name] < 300 { // perfectly even would be 1000 each
			t.Errorf("peer %s owns only %d/3000 keys — ring badly skewed: %v", name, counts[name], counts)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(3, 30*time.Millisecond)
	if !b.Allow() || b.State() != StateClosed {
		t.Fatal("new breaker should be closed and admitting")
	}
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("two failures under threshold 3 should stay closed")
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatal("third consecutive failure should open")
	}
	if b.Allow() {
		t.Fatal("open breaker must reject before cooldown")
	}
	time.Sleep(40 * time.Millisecond)
	if b.State() != StateHalfOpen {
		t.Fatal("cooldown elapsed: breaker should read half-open")
	}
	if !b.Allow() {
		t.Fatal("half-open must admit one trial")
	}
	if b.Allow() {
		t.Fatal("half-open must admit only one trial at a time")
	}
	b.Failure() // trial failed → re-open
	if b.Allow() {
		t.Fatal("failed trial must re-open the circuit")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second trial after cooldown")
	}
	b.Success()
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("successful trial must re-close")
	}
	// Success resets the consecutive-failure streak.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("failure streak must reset on success")
	}
}

// TestForwardAndFallbackClassification drives Forward against live and
// dead peers and checks the breaker, classification, and relay behavior.
func TestForwardAndFallbackClassification(t *testing.T) {
	var hits atomic.Int64
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		if req.Header.Get(ForwardedHeader) == "" {
			t.Error("forwarded request missing loop-prevention header")
		}
		switch req.URL.Path {
		case "/ok":
			w.Write([]byte(`{"name":"x"}`))
		case "/shed":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/boom":
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer peerSrv.Close()

	r := testRouter(t, "a", map[string]string{"a": "http://unused:1", "b": peerSrv.URL}, nil)

	rel, perr := r.Forward(context.Background(), "b", "/ok", []byte(`{}`), nil)
	if perr != nil {
		t.Fatalf("forward to live peer: %v", perr)
	}
	if rel.Status != 200 || string(rel.Body) != `{"name":"x"}` {
		t.Fatalf("unexpected relay: %d %q", rel.Status, rel.Body)
	}

	if _, perr = r.Forward(context.Background(), "b", "/shed", nil, nil); perr == nil || perr.Reason != ReasonPeerShed {
		t.Fatalf("429 should classify as peer-shed, got %v", perr)
	}
	if _, perr = r.Forward(context.Background(), "b", "/boom", nil, nil); perr == nil || perr.Reason != ReasonPeer5xx {
		t.Fatalf("500 should classify as peer-5xx, got %v", perr)
	}

	// A shedding peer does not open the circuit; transport failures do.
	snap := r.Snapshot()
	if len(snap.Peers) != 1 || snap.Peers[0].State != "closed" {
		t.Fatalf("peer b should still be closed: %+v", snap.Peers)
	}

	// Dead peer: connection-level failures retry once, then open after
	// breakerThreshold forwards.
	peerSrv.Close()
	for i := 0; i < 3; i++ {
		if _, perr = r.Forward(context.Background(), "b", "/ok", nil, nil); perr == nil || perr.Reason != ReasonRefused {
			t.Fatalf("dead peer should classify refused, got %v", perr)
		}
	}
	if st := r.peers["b"].br.State(); st != StateOpen {
		t.Fatalf("three consecutive refused forwards should open the circuit, got %v", st)
	}
	if _, ok := r.Route("anything"); ok {
		// Route may pick peer a (unroutable) or b (open): either way the
		// answer for a remote route through b must be false now.
		if owner := r.Owner("anything"); owner == "b" {
			t.Fatal("Route admitted a request through an open circuit")
		}
	}
}

// TestProbeReclosesCircuit kills a peer, lets the breaker open, revives
// the peer, and checks ProbeOnce re-closes the circuit.
func TestProbeReclosesCircuit(t *testing.T) {
	var up atomic.Bool
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !up.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer peerSrv.Close()

	r := testRouter(t, "a", map[string]string{"a": "http://unused:1", "b": peerSrv.URL}, nil)
	p := r.peers["b"]

	r.ProbeOnce()
	r.ProbeOnce()
	r.ProbeOnce()
	if st := p.br.State(); st != StateOpen {
		t.Fatalf("three failed probes should open the circuit, got %v", st)
	}
	up.Store(true)
	time.Sleep(60 * time.Millisecond) // past cooldown
	r.ProbeOnce()
	if st := p.br.State(); st != StateClosed {
		t.Fatalf("successful probe after recovery should re-close, got %v", st)
	}
	if !p.healthy.Load() {
		t.Fatal("peer should be marked healthy")
	}
}

// TestDegradedFactor pins the shed-guidance scale: 1.0 with all circuits
// closed, 2.0 with every remote peer open.
func TestDegradedFactor(t *testing.T) {
	r := testRouter(t, "a", map[string]string{
		"a": "http://unused:1", "b": "http://unused:2", "c": "http://unused:3",
	}, nil)
	if f := r.DegradedFactor(); f != 1 {
		t.Fatalf("healthy fleet factor = %v, want 1", f)
	}
	for i := 0; i < 3; i++ {
		r.peers["b"].br.Failure()
	}
	if f := r.DegradedFactor(); f != 1.5 {
		t.Fatalf("one of two remote peers down: factor = %v, want 1.5", f)
	}
	for i := 0; i < 3; i++ {
		r.peers["c"].br.Failure()
	}
	if f := r.DegradedFactor(); f != 2 {
		t.Fatalf("all remote peers down: factor = %v, want 2", f)
	}
}
