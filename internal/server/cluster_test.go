package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	determinacy "determinacy"
	"determinacy/internal/cluster"
	"determinacy/internal/obs"
	"determinacy/internal/server/sched"
)

// clusterNode is one in-process cluster member: a full Server behind a
// real httptest listener, with its own fact-cache directory and Router.
type clusterNode struct {
	name    string
	srv     *Server
	ts      *httptest.Server
	router  *cluster.Router
	metrics *obs.Metrics
	fc      *determinacy.FactCache
	handler atomic.Pointer[http.Handler]
}

// newClusterNodes builds a fully wired in-process cluster: every node
// gets a listener first (handler indirection breaks the URL/Router
// construction cycle), then a Router over the shared topology, then a
// Server whose handler is swapped in. transport may be nil (default);
// tweak, when non-nil, adjusts each node's cluster config (fast breaker
// cooldowns, forward timeouts, ...).
func newClusterNodes(t *testing.T, names []string, transport http.RoundTripper, tweak func(*cluster.Config)) map[string]*clusterNode {
	t.Helper()
	nodes := make(map[string]*clusterNode, len(names))
	peers := make(map[string]string, len(names))
	for _, name := range names {
		n := &clusterNode{name: name}
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := n.handler.Load()
			if h == nil {
				http.Error(w, "node not ready", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		t.Cleanup(n.ts.Close)
		nodes[name] = n
		peers[name] = n.ts.URL
	}
	for _, name := range names {
		n := nodes[name]
		n.metrics = obs.NewMetrics()
		ccfg := cluster.Config{
			Topology:        cluster.Topology{Self: name, Peers: peers},
			Transport:       transport,
			Metrics:         n.metrics,
			ProbeInterval:   -1, // tests drive ProbeOnce explicitly
			BreakerCooldown: 50 * time.Millisecond,
		}
		if tweak != nil {
			tweak(&ccfg)
		}
		router, err := cluster.New(ccfg)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", name, err)
		}
		t.Cleanup(router.Close)
		n.router = router

		fc, err := determinacy.OpenFactCache(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatalf("OpenFactCache(%s): %v", name, err)
		}
		n.fc = fc
		n.srv = New(Config{
			FactCache: fc,
			Cluster:   router,
			Metrics:   n.metrics,
		})
		h := n.srv.Handler()
		n.handler.Store(&h)
	}
	return nodes
}

// srcOwnedBy derives a runnable program whose content hash lands on the
// wanted ring owner (salted comments shift the hash, not the facts).
func srcOwnedBy(t *testing.T, r *cluster.Router, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("var x = 1 + 2; console.log(x); // salt %d", i)
		if r.Owner(cluster.HashKey(src)) == owner {
			return src
		}
	}
	t.Fatalf("no source owned by %q found", owner)
	return ""
}

// normalize strips the per-run wall-clock field so responses can be
// compared for semantic byte-identity.
func normalize(a AnalyzeResponse) AnalyzeResponse {
	a.ElapsedMS = 0
	return a
}

// TestClusterForwardToOwner pins the tentpole's happy path: a request
// landing on a non-owner is relayed to the ring owner, the client sees a
// clean 200 identical to asking the owner directly, and both nodes'
// observability agrees on who served it.
func TestClusterForwardToOwner(t *testing.T) {
	nodes := newClusterNodes(t, []string{"a", "b"}, nil, nil)
	a, b := nodes["a"], nodes["b"]
	src := srcOwnedBy(t, a.router, "b")

	resp := postJSON(t, a.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "fwd.js", Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded status = %d, want 200", resp.StatusCode)
	}
	relayed := decodeAnalyze(t, resp)

	direct := decodeAnalyze(t, postJSON(t, b.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "fwd.js", Source: src}))
	if !reflect.DeepEqual(normalize(relayed), normalize(direct)) {
		t.Fatalf("relayed response differs from owner's direct answer:\nrelayed: %+v\ndirect:  %+v", relayed, direct)
	}

	// The forwarder's flight entry names the peer; the owner's does not.
	af := a.srv.flight.Entries()
	if len(af) == 0 || af[0].Peer != "b" {
		t.Fatalf("forwarder flight entry should carry peer=b, got %+v", af)
	}
	bf := b.srv.flight.Entries()
	if len(bf) == 0 || bf[0].Peer != "" {
		t.Fatalf("owner flight entry should have no peer, got %+v", bf)
	}
	if v := a.metrics.Counter(`cluster_requests_total{peer="b",outcome="relayed"}`).Value(); v != 1 {
		t.Fatalf(`cluster_requests_total{peer="b",outcome="relayed"} = %d, want 1`, v)
	}
}

// TestClusterForwardedServedLocally pins loop prevention and the relay
// digest: a request already forwarded once is served where it lands, and
// the response is stamped with a digest over exactly the bytes written.
func TestClusterForwardedServedLocally(t *testing.T) {
	nodes := newClusterNodes(t, []string{"a", "b"}, nil, nil)
	a := nodes["a"]
	src := srcOwnedBy(t, a.router, "b")

	body, _ := json.Marshal(AnalyzeRequest{Name: "loop.js", Source: src})
	req, _ := http.NewRequest(http.MethodPost, a.ts.URL+"/v1/analyze", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (served locally, never re-forwarded)", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	sum := sha256.Sum256(raw)
	if got, want := resp.Header.Get(cluster.DigestHeader), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("relay digest = %q, want %q (sha256 of body)", got, want)
	}
	if af := a.srv.flight.Entries(); len(af) == 0 || af[0].Peer != "" {
		t.Fatalf("forwarded request must be served locally, got %+v", af)
	}
}

// TestClusterDeadPeerFallsBack pins graceful degradation: with the owner
// gone, requests still answer 200 from local analysis, fallbacks are
// counted by reason, the owner's circuit opens after the threshold, and
// repeats of the program land on the node's own fact cache.
func TestClusterDeadPeerFallsBack(t *testing.T) {
	nodes := newClusterNodes(t, []string{"a", "b"}, nil, func(c *cluster.Config) {
		c.ForwardTimeout = 2 * time.Second
		c.BreakerCooldown = time.Minute // keep it open for the assertion
	})
	a, b := nodes["a"], nodes["b"]
	src := srcOwnedBy(t, a.router, "b")
	b.ts.Close() // owner dies before serving anything

	// Each request's failed forward is one breaker strike; the third
	// opens the circuit.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, a.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "dead.js", Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200 via local fallback", i, resp.StatusCode)
		}
		out := decodeAnalyze(t, resp)
		if out.Partial || out.NumFacts == 0 {
			t.Fatalf("request %d: degraded local fallback: %+v", i, out)
		}
	}
	if v := a.metrics.Counter(`cluster_fallback_total{reason="refused"}`).Value(); v != 3 {
		t.Fatalf(`cluster_fallback_total{reason="refused"} = %d, want 3`, v)
	}
	// The first fallback analyzed cold and stored; the repeats hit the
	// node's own L2.
	if st := a.fc.Internal().Stats(); st.Stores != 1 || st.Hits != 2 {
		t.Fatalf("node a factcache after three fallbacks: stores=%d hits=%d, want 1/2", st.Stores, st.Hits)
	}

	// Circuit now open: the next request falls back without dialing.
	resp := postJSON(t, a.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "dead.js", Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-open status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if v := a.metrics.Counter(`cluster_fallback_total{reason="breaker-open"}`).Value(); v != 1 {
		t.Fatalf(`cluster_fallback_total{reason="breaker-open"} = %d, want 1`, v)
	}
	snap := a.router.Snapshot()
	if len(snap.Peers) != 1 || snap.Peers[0].State != "open" {
		t.Fatalf("peer b should be open, got %+v", snap.Peers)
	}
}

// TestClusterRemoteCacheWarm pins how a non-owner's cache warms: peers
// share no fact records, so a request served on node a (forwarded header
// = loop prevention) with an empty local cache is analysed locally,
// answers the owner's bytes, stores into a's own L2, and leaves the
// owner's cache untouched; the repeat hits a's L2.
func TestClusterRemoteCacheWarm(t *testing.T) {
	nodes := newClusterNodes(t, []string{"a", "b"}, nil, nil)
	a, b := nodes["a"], nodes["b"]
	src := srcOwnedBy(t, a.router, "b")

	// Owner runs cold and caches.
	direct := decodeAnalyze(t, postJSON(t, b.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "warm.js", Source: src}))
	ownerBefore := b.fc.Internal().Stats()

	body, _ := json.Marshal(AnalyzeRequest{Name: "warm.js", Source: src})
	serveOnA := func() AnalyzeResponse {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, a.ts.URL+"/v1/analyze", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.ForwardedHeader, "b")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		return decodeAnalyze(t, resp)
	}

	local := serveOnA()
	if !reflect.DeepEqual(normalize(local), normalize(direct)) {
		t.Fatalf("locally warmed response differs from owner's:\nlocal:  %+v\ndirect: %+v", local, direct)
	}
	if st := a.fc.Internal().Stats(); st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("node a factcache after cold local serve: stores=%d hits=%d, want 1/0", st.Stores, st.Hits)
	}

	// The repeat lands on a's own L2.
	if again := serveOnA(); !reflect.DeepEqual(normalize(again), normalize(direct)) {
		t.Fatalf("L2 hit differs from owner's:\nhit:    %+v\ndirect: %+v", again, direct)
	}
	if st := a.fc.Internal().Stats(); st.Stores != 1 || st.Hits != 1 {
		t.Fatalf("node a factcache after repeat: stores=%d hits=%d, want 1/1", st.Stores, st.Hits)
	}
	if st := b.fc.Internal().Stats(); st != ownerBefore {
		t.Fatalf("owner's factcache was consulted by a peer: before %+v, after %+v", ownerBefore, st)
	}
}

// TestClusterStatuszAndHealthz pins the operator surface: the peer table
// on /debug/statusz (JSON and text) and the cluster identity plus drain
// budget on /healthz.
func TestClusterStatuszAndHealthz(t *testing.T) {
	nodes := newClusterNodes(t, []string{"a", "b", "c"}, nil, nil)
	a := nodes["a"]

	resp, err := http.Get(a.ts.URL + "/debug/statusz")
	if err != nil {
		t.Fatalf("GET statusz: %v", err)
	}
	var doc struct {
		Cluster cluster.Snapshot `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	resp.Body.Close()
	if doc.Cluster.Self != "a" || len(doc.Cluster.Peers) != 2 {
		t.Fatalf("statusz cluster = %+v, want self=a with 2 remote peers", doc.Cluster)
	}
	for _, p := range doc.Cluster.Peers {
		if p.State != "closed" {
			t.Fatalf("fresh peer %s state = %q, want closed", p.Name, p.State)
		}
	}

	text, err := http.Get(a.ts.URL + "/debug/statusz?format=text")
	if err != nil {
		t.Fatalf("GET statusz text: %v", err)
	}
	tb, _ := io.ReadAll(text.Body)
	text.Body.Close()
	if !strings.Contains(string(tb), "cluster self=a") || !strings.Contains(string(tb), "peer=b") {
		t.Fatalf("text statusz missing peer table:\n%s", tb)
	}

	hz, err := http.Get(a.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var health map[string]any
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	hz.Body.Close()
	if health["cluster_self"] != "a" {
		t.Fatalf("healthz cluster_self = %v, want a", health["cluster_self"])
	}
	if ms, ok := health["drain_timeout_ms"].(float64); !ok || ms != 10000 {
		t.Fatalf("healthz drain_timeout_ms = %v, want 10000 (default)", health["drain_timeout_ms"])
	}
}

// TestClusterProbeRecloses pins health-driven recovery at the server
// level: a dead peer opens, the node comes back, and one probe round
// re-closes the circuit without risking a live request.
func TestClusterProbeRecloses(t *testing.T) {
	var down atomic.Bool
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if down.Load() {
			return nil, fmt.Errorf("chaos: host unreachable")
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	nodes := newClusterNodes(t, []string{"a", "b"}, transport, func(c *cluster.Config) {
		c.BreakerCooldown = 10 * time.Millisecond
	})
	a := nodes["a"]
	src := srcOwnedBy(t, a.router, "b")

	down.Store(true)
	for i := 0; i < 3; i++ {
		resp := postJSON(t, a.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "probe.js", Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 fallback", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if snap := a.router.Snapshot(); snap.Peers[0].State != "open" {
		t.Fatalf("peer state = %q, want open", snap.Peers[0].State)
	}

	down.Store(false)
	time.Sleep(20 * time.Millisecond) // past cooldown so the probe is the half-open trial
	a.router.ProbeOnce()
	snap := a.router.Snapshot()
	if snap.Peers[0].State != "closed" || !snap.Peers[0].Healthy {
		t.Fatalf("after recovery probe: %+v, want closed+healthy", snap.Peers[0])
	}

	// Traffic relays again.
	resp := postJSON(t, a.ts.URL+"/v1/analyze", AnalyzeRequest{Name: "probe.js", Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if af := a.srv.flight.Entries(); af[0].Peer != "b" {
		t.Fatalf("post-recovery request should relay to b, got %+v", af[0])
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestShedRetryAfterScaling pins the degraded-mode admission guidance:
// Retry-After grows with the open-circuit fraction and clamps at the
// ceiling.
func TestShedRetryAfterScaling(t *testing.T) {
	e := &sched.ShedError{RetryAfter: 2 * time.Second}
	e.ScaleRetryAfter(1.5, 10*time.Second)
	if e.RetryAfter != 3*time.Second {
		t.Fatalf("scaled RetryAfter = %v, want 3s", e.RetryAfter)
	}
	e.ScaleRetryAfter(100, 10*time.Second)
	if e.RetryAfter != 10*time.Second {
		t.Fatalf("clamped RetryAfter = %v, want 10s", e.RetryAfter)
	}
	e2 := &sched.ShedError{RetryAfter: 2 * time.Second}
	e2.ScaleRetryAfter(1, 10*time.Second)
	if e2.RetryAfter != 2*time.Second {
		t.Fatalf("factor 1 must be a no-op, got %v", e2.RetryAfter)
	}
}
