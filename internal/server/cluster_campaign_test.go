package server

// The network-chaos campaign: a 3-node in-process cluster behind one
// seeded flaky transport (drops, latency, torn bodies, bit-flips) with a
// peer killed and revived mid-run. The invariant is the tentpole's
// robustness headline: EVERY client response is a clean 200 whose facts
// are byte-identical to a chaos-free single-node reference (or a typed
// 429), no matter which peer failure mode a request hit; circuits
// re-close once the killed peer returns; and the fleet leaks no
// goroutines. Runs are sized by CLUSTER_CHAOS_RUNS (CI uses 500).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"determinacy/internal/cluster"
	"determinacy/internal/cluster/chaos"
)

func clusterChaosRuns(t *testing.T, def int) int {
	if s := os.Getenv("CLUSTER_CHAOS_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CLUSTER_CHAOS_RUNS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 10
	}
	return def
}

// chaosSources builds per-owner program variants: for each node, count
// distinct quick programs whose content hash that node owns (salted
// comments steer the hash without touching semantics), so every node
// both forwards and serves during the campaign.
func chaosSources(t *testing.T, r *cluster.Router, owners []string, count int) []string {
	t.Helper()
	var srcs []string
	for _, owner := range owners {
		for k := 0; k < count; k++ {
			body := fmt.Sprintf("var a = %d; var i = 0; while (i < %d) { a = a + i; i = i + 1; } console.log(a);", k, 20+5*k)
			found := false
			for s := 0; s < 10000; s++ {
				src := fmt.Sprintf("%s // %s-%d-%d", body, owner, k, s)
				if r.Owner(cluster.HashKey(src)) == owner {
					srcs = append(srcs, src)
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no variant %d owned by %q found", k, owner)
			}
		}
	}
	return srcs
}

func TestClusterChaosCampaign(t *testing.T) {
	runs := clusterChaosRuns(t, 500)
	const seed = uint64(0xC1A0_5EED)

	chaosT := chaos.New(nil, chaos.Config{
		Seed:        seed,
		DropProb:    0.05,
		LatencyProb: 0.10,
		MaxLatency:  25 * time.Millisecond,
		PartialProb: 0.04,
		CorruptProb: 0.05,
	})
	names := []string{"a", "b", "c"}
	nodes := newClusterNodes(t, names, chaosT, func(c *cluster.Config) {
		c.ForwardTimeout = 3 * time.Second
		c.BreakerCooldown = 100 * time.Millisecond
	})
	srcs := chaosSources(t, nodes["a"].router, names, 3)

	// Chaos-free single-node reference: the ground truth every clustered
	// response must match byte-for-byte (elapsed_ms aside).
	refSrv := httptest.NewServer(New(Config{}).Handler())
	defer refSrv.Close()
	refs := make([]AnalyzeResponse, len(srcs))
	bodies := make([][]byte, len(srcs))
	for i, src := range srcs {
		refs[i] = normalize(decodeAnalyze(t, postJSON(t, refSrv.URL+"/v1/analyze", AnalyzeRequest{Name: "chaos.js", Source: src, Seed: 3})))
		bodies[i], _ = json.Marshal(AnalyzeRequest{Name: "chaos.js", Source: src, Seed: 3})
	}

	base, _ := settleGoroutines(0, 1<<30) // current count, no assertion yet

	var ok200, shed429, partials atomic.Int64
	runPhase := func(lo, hi int, targets []string) {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					v := int(mix(seed, uint64(i)) % uint64(len(srcs)))
					target := nodes[targets[int(mix(uint64(i), 0xBEEF)%uint64(len(targets)))]]
					resp, err := http.Post(target.ts.URL+"/v1/analyze", "application/json", bytes.NewReader(bodies[v]))
					if err != nil {
						t.Errorf("iter %d: client POST to %s failed: %v", i, target.name, err)
						continue
					}
					switch resp.StatusCode {
					case http.StatusOK:
						var out AnalyzeResponse
						if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
							t.Errorf("iter %d: 200 body does not decode: %v", i, err)
						} else if out.Partial {
							// Chaos rides the wire, not the analysis, so sound
							// partials are unexpected here — but if one occurs
							// it must say why.
							if out.DegradeReason == "" {
								t.Errorf("iter %d: partial result with empty degrade_reason", i)
							}
							partials.Add(1)
						} else if !reflect.DeepEqual(normalize(out), refs[v]) {
							t.Errorf("iter %d (node %s, variant %d): response diverges from chaos-free reference\ngot:  %+v\nwant: %+v",
								i, target.name, v, normalize(out), refs[v])
						}
						ok200.Add(1)
					case http.StatusTooManyRequests:
						var er ErrorResponse
						if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error.Kind != "shed" {
							t.Errorf("iter %d: untyped 429 (err=%v kind=%q)", i, err, er.Error.Kind)
						}
						shed429.Add(1)
					default:
						raw := new(bytes.Buffer)
						raw.ReadFrom(resp.Body)
						t.Errorf("iter %d (node %s): status %d, body %.200s", i, target.name, resp.StatusCode, raw.String())
					}
					resp.Body.Close()
				}
			}()
		}
		for i := lo; i < hi; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	killAt, reviveAt := runs*3/10, runs*6/10
	cHost := strings.TrimPrefix(nodes["c"].ts.URL, "http://")

	// Phase 1: full fleet under wire chaos.
	runPhase(0, killAt, names)

	// Phase 2: peer c dies (SIGKILL stand-in); clients route around it,
	// a and b keep answering for programs c owns.
	chaosT.Kill(cHost)
	runPhase(killAt, reviveAt, []string{"a", "b"})

	// Revive c and let the probers re-close its circuits before phase 3.
	chaosT.Revive(cHost)
	recovered := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		closedEverywhere := true
		for _, n := range []string{"a", "b"} {
			nodes[n].router.ProbeOnce()
			for _, p := range nodes[n].router.Snapshot().Peers {
				if p.Name == "c" && p.State != "closed" {
					closedEverywhere = false
				}
			}
		}
		if closedEverywhere {
			recovered = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("circuits for revived peer c never re-closed")
	}
	forwardsToC := func() (n int64) {
		for _, name := range []string{"a", "b"} {
			for _, p := range nodes[name].router.Snapshot().Peers {
				if p.Name == "c" {
					n += p.Forwards
				}
			}
		}
		return n
	}
	preRecovery := forwardsToC()

	// Phase 3: full fleet again; traffic must relay to c once more.
	runPhase(reviveAt, runs, names)
	if post := forwardsToC(); post <= preRecovery {
		t.Errorf("no forwards reached revived peer c (before %d, after %d)", preRecovery, post)
	}

	if got := ok200.Load() + shed429.Load(); got != int64(runs) {
		t.Errorf("accounted responses = %d, want %d (every request must answer 200 or typed 429)", got, runs)
	}

	// Quiesce: every circuit on every node re-closes once the chaos stops
	// being fed new traffic (probes may still hit random drops, so poll).
	allClosed := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		allClosed = true
		for _, n := range nodes {
			n.router.ProbeOnce()
			for _, p := range n.router.Snapshot().Peers {
				if p.State != "closed" {
					allClosed = false
				}
			}
		}
		if allClosed {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !allClosed {
		for _, n := range nodes {
			t.Logf("node %s: %+v", n.name, n.router.Snapshot().Peers)
		}
		t.Error("breakers did not all re-close after the campaign")
	}

	// Idle keep-alive connections (client and inter-node, both on the
	// default transport under the chaos wrapper) hold reader goroutines;
	// drop them so the settle check sees real leaks only.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if n, ok := settleGoroutines(base, 10); !ok {
		t.Errorf("goroutine leak: %d at start, %d after settling", base, n)
	}

	// Availability table for EXPERIMENTS.md: how the fleet degraded and
	// recovered, by observable.
	t.Logf("campaign: runs=%d ok200=%d shed429=%d partial=%d", runs, ok200.Load(), shed429.Load(), partials.Load())
	reasons := []string{
		cluster.ReasonBreakerOpen, cluster.ReasonBusy, cluster.ReasonTimeout,
		cluster.ReasonRefused, cluster.ReasonDisconnect, cluster.ReasonOversize,
		cluster.ReasonGarbage, cluster.ReasonPeerShed, cluster.ReasonPeerDraining,
		cluster.ReasonPeer5xx, cluster.ReasonPanic, cluster.ReasonDraining,
	}
	var relayed, fellBack int64
	for _, n := range nodes {
		for _, peerName := range names {
			if peerName == n.name {
				continue
			}
			relayed += n.metrics.Counter(fmt.Sprintf("cluster_requests_total{peer=%q,outcome=%q}", peerName, "relayed")).Value()
		}
		for _, reason := range reasons {
			if v := n.metrics.Counter(fmt.Sprintf("cluster_fallback_total{reason=%q}", reason)).Value(); v > 0 {
				fellBack += v
				t.Logf("node %s fallback reason=%s count=%d", n.name, reason, v)
			}
		}
	}
	t.Logf("campaign: relayed=%d fallbacks=%d", relayed, fellBack)
	if relayed == 0 {
		t.Error("campaign never relayed a request — the cluster did not cluster")
	}
	if fellBack == 0 {
		t.Error("campaign never fell back — the chaos did not bite")
	}
}
