// Package cluster turns a set of independent detserve nodes into a
// fault-tolerant sharded fleet. A consistent-hash ring keyed by the
// progcache content hash (sha256 of the program source) names one owning
// peer per program, so identical programs land on warm caches and a viral
// script compiles once cluster-wide (the owner's progcache singleflight
// collapses the stampede that the ring funnels to it). Peers share work
// only by that routing: each node analyzes against its own caches.
//
// The package is failure-first. Every remote interaction is bounded and
// every failure mode degrades to local analysis, so a cluster node is
// never worse than a single node:
//
//   - per-peer circuit breaker: closed → open after breakerThreshold
//     consecutive failures → half-open after BreakerCooldown, where a
//     single trial (health probe or real request) decides re-close vs
//     re-open;
//   - per-peer health checking driven off /readyz on ProbeInterval, feeding
//     the same breaker so a recovered peer re-closes its circuit without
//     risking live traffic;
//   - bounded timeouts everywhere, and one retry with exponential backoff
//     and jitter for connection-level forward failures;
//   - bounded per-peer in-flight forwards (a slow peer exhausts its own
//     semaphore, not this node's goroutines);
//   - relayed responses are fully buffered and size-capped before a byte
//     reaches the client, so a mid-body peer disconnect falls back to
//     local analysis instead of truncating a response.
//
// Observability: cluster_peer_state{peer} (0 open, 1 half-open, 2 closed),
// cluster_requests_total{peer,outcome}, cluster_fallback_total{reason}, and
// a peer table on /debug/statusz via Snapshot.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"determinacy/internal/obs"
)

// ForwardedHeader marks a request already routed by a peer; a node never
// forwards a request that carries it, so a routing disagreement (ring skew
// during a topology change) degrades to one extra hop, never a loop.
const ForwardedHeader = "X-Cluster-Forwarded"

// DigestHeader carries the hex sha256 of a relayed response body, set by
// the owning node and verified by the forwarder over the bytes it
// received. It catches in-transit corruption that still parses as JSON —
// framing-level CRCs protect cache records the same way, but a relayed
// analysis response is plain JSON and needs its own integrity check.
const DigestHeader = "X-Relay-Digest"

// Topology names the fleet: this node plus every peer's base URL. The
// JSON shape is the detserve -peers flag format:
//
//	{"self": "a",
//	 "vnodes": 64,
//	 "peers": {"a": "http://10.0.0.1:8420", "b": "http://10.0.0.2:8420"}}
type Topology struct {
	// Self is this node's name; it must appear in Peers.
	Self string `json:"self"`
	// VNodes is the virtual-node count per peer on the hash ring
	// (0 = DefaultVNodes).
	VNodes int `json:"vnodes,omitempty"`
	// Peers maps peer names to http(s) base URLs.
	Peers map[string]string `json:"peers"`
}

// DefaultVNodes is the per-peer virtual-node count when the topology
// names none; 64 keeps ownership within a few percent of even for small
// fleets.
const DefaultVNodes = 64

// validName bounds peer names to the label-safe charset shared with
// tenant IDs, so a hostile topology file cannot mint weird metric labels
// or header values.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

// ParseTopology decodes and validates the -peers JSON object; anything
// after it other than whitespace is an error.
func ParseTopology(data []byte) (Topology, error) {
	var t Topology
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("cluster: peers config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Topology{}, errors.New("cluster: peers config: trailing data after the JSON object")
	}
	if t.VNodes < 0 {
		return Topology{}, fmt.Errorf("cluster: vnodes must be non-negative, got %d", t.VNodes)
	}
	if t.Self == "" {
		return Topology{}, fmt.Errorf("cluster: peers config names no %q node", "self")
	}
	if !validName(t.Self) {
		return Topology{}, fmt.Errorf("cluster: invalid self name %q (want 1-64 chars of [A-Za-z0-9_.-])", t.Self)
	}
	if len(t.Peers) == 0 {
		return Topology{}, fmt.Errorf("cluster: peers config names no peers")
	}
	if _, ok := t.Peers[t.Self]; !ok {
		return Topology{}, fmt.Errorf("cluster: self %q is not in the peers map", t.Self)
	}
	for name, raw := range t.Peers {
		if !validName(name) {
			return Topology{}, fmt.Errorf("cluster: invalid peer name %q (want 1-64 chars of [A-Za-z0-9_.-])", name)
		}
		u, err := url.Parse(raw)
		if err != nil {
			return Topology{}, fmt.Errorf("cluster: peer %q: bad URL %q: %w", name, raw, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return Topology{}, fmt.Errorf("cluster: peer %q: URL %q must be http(s)://host[:port]", name, raw)
		}
	}
	return t, nil
}

// ParseTopologyFlag resolves the -peers flag value: inline JSON, or @path
// to read the JSON from a file. The empty value is a valid "no cluster".
func ParseTopologyFlag(v string) (Topology, error) {
	if v == "" {
		return Topology{}, nil
	}
	data := []byte(v)
	if strings.HasPrefix(v, "@") {
		b, err := os.ReadFile(v[1:])
		if err != nil {
			return Topology{}, fmt.Errorf("cluster: peers config: %w", err)
		}
		data = b
	}
	return ParseTopology(data)
}

// Enabled reports whether the topology names a fleet (a zero Topology is
// the single-node configuration).
func (t Topology) Enabled() bool { return t.Self != "" }

// Config tunes a Router. Zero values select the documented defaults.
type Config struct {
	Topology Topology
	// Transport performs the actual HTTP round trips (nil =
	// http.DefaultTransport). Chaos campaigns inject a flaky transport
	// here; production uses the default.
	Transport http.RoundTripper
	// Metrics receives the cluster_* series (nil = none).
	Metrics *obs.Metrics
	// ForwardTimeout bounds one forwarded /v1/analyze round trip,
	// including the retry (0 = 15s). The owner enforces its own analysis
	// deadline; this guards against a hung peer, not a slow program.
	ForwardTimeout time.Duration
	// ProbeInterval paces the /readyz health prober started by Start
	// (0 = 1s, negative = no background prober; ProbeOnce still works).
	ProbeInterval time.Duration
	// BreakerCooldown is how long an open circuit waits before
	// half-opening (0 = 2s).
	BreakerCooldown time.Duration
}

const (
	// breakerThreshold is the consecutive-failure count that opens a
	// peer's circuit.
	breakerThreshold = 3
	// maxPeerInFlight bounds concurrent forwards per peer; the excess
	// falls back to local analysis rather than queueing.
	maxPeerInFlight = 32
	// maxRelayBytes caps a buffered peer response; larger bodies fall
	// back to local analysis.
	maxRelayBytes = 32 << 20
)

func (c Config) withDefaults() Config {
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 15 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// peer is one remote node's live state.
type peer struct {
	name string
	url  string

	br       *breaker
	inflight chan struct{} // forward semaphore

	healthy  atomic.Bool
	lastErr  atomic.Pointer[string]
	forwards atomic.Int64 // relayed forward round trips (any outcome)
	failures atomic.Int64 // transport/5xx/garbage failures fed to the breaker

	state *obs.Gauge // cluster_peer_state{peer}
}

func (p *peer) noteErr(err error) {
	if err != nil {
		s := err.Error()
		p.lastErr.Store(&s)
	}
}

// publishState mirrors the breaker state into cluster_peer_state{peer}:
// 0 open, 1 half-open, 2 closed.
func (p *peer) publishState() {
	if p.state == nil {
		return
	}
	switch p.br.State() {
	case StateOpen:
		p.state.Set(0)
	case StateHalfOpen:
		p.state.Set(1)
	default:
		p.state.Set(2)
	}
}

// success records a good round trip (closing the breaker if needed).
func (p *peer) success() {
	p.br.Success()
	p.healthy.Store(true)
	p.publishState()
}

// failure records a bad round trip (possibly opening the breaker).
func (p *peer) failure(err error) {
	p.failures.Add(1)
	p.noteErr(err)
	p.br.Failure()
	p.publishState()
}

// Router is the node-local view of the fleet: the ring, every remote
// peer's breaker/health state, and the transport machinery. Safe for
// concurrent use. Create with New, Start the prober, Close on shutdown.
type Router struct {
	cfg   Config
	self  string
	ring  *ring
	peers map[string]*peer // remote peers only; self is served locally

	metrics *obs.Metrics

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// New builds a Router from cfg. The topology must be Enabled and valid
// (ParseTopology validates the flag form; programmatic topologies are
// re-validated here).
func New(cfg Config) (*Router, error) {
	top := cfg.Topology
	if !top.Enabled() {
		return nil, fmt.Errorf("cluster: empty topology")
	}
	// Re-validate so programmatic construction gets the same guarantees.
	b, err := json.Marshal(top)
	if err != nil {
		return nil, err
	}
	if top, err = ParseTopology(b); err != nil {
		return nil, err
	}
	cfg.Topology = top
	cfg = cfg.withDefaults()

	names := make([]string, 0, len(top.Peers))
	for name := range top.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	vnodes := top.VNodes
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	r := &Router{
		cfg:     cfg,
		self:    top.Self,
		ring:    newRing(names, vnodes),
		peers:   make(map[string]*peer, len(top.Peers)-1),
		metrics: cfg.Metrics,
		closed:  make(chan struct{}),
	}
	if r.metrics != nil {
		r.metrics.Help("cluster_peer_state", "Per-peer circuit state: 0 open, 1 half-open, 2 closed.")
		r.metrics.Help("cluster_requests_total", "Forwarded peer round trips by outcome.")
		r.metrics.Help("cluster_fallback_total", "Requests served by local analysis after a peer failure, by reason.")
	}
	for name, u := range top.Peers {
		if name == top.Self {
			continue
		}
		p := &peer{
			name:     name,
			url:      strings.TrimSuffix(u, "/"),
			br:       newBreaker(breakerThreshold, cfg.BreakerCooldown),
			inflight: make(chan struct{}, maxPeerInFlight),
		}
		if r.metrics != nil {
			p.state = r.metrics.Gauge(fmt.Sprintf("cluster_peer_state{peer=%q}", name))
		}
		p.publishState()
		r.peers[name] = p
	}
	return r, nil
}

// Self reports this node's name.
func (r *Router) Self() string { return r.self }

// Peers reports the remote peer names, sorted.
func (r *Router) Peers() []string {
	names := make([]string, 0, len(r.peers))
	for name := range r.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Owner reports the ring owner for a content-hash key.
func (r *Router) Owner(key string) string { return r.ring.owner(key) }

// Route resolves the owner for key: ok is true only when the owner is a
// remote peer whose circuit currently admits a request (closed, or
// half-open with this request as the trial). A false return means "serve
// locally" — the caller needs no further cluster involvement.
func (r *Router) Route(key string) (string, bool) {
	owner := r.ring.owner(key)
	if owner == r.self {
		return owner, false
	}
	p, ok := r.peers[owner]
	if !ok {
		return owner, false
	}
	if !p.br.Allow() {
		p.publishState()
		return owner, false
	}
	p.publishState()
	return owner, true
}

// CountFallback publishes one local-fallback decision by reason; the
// server calls it whenever a peer failure mode lands a request back on
// the local analysis path.
func (r *Router) CountFallback(reason string) {
	if r.metrics != nil {
		r.metrics.Counter(fmt.Sprintf("cluster_fallback_total{reason=%q}", reason)).Inc()
	}
}

// countRequest publishes one peer round-trip outcome.
func (r *Router) countRequest(peerName, outcome string) {
	if r.metrics != nil {
		r.metrics.Counter(fmt.Sprintf("cluster_requests_total{peer=%q,outcome=%q}", peerName, outcome)).Inc()
	}
}

// DegradedFactor reports how much of the remote fleet is currently
// unreachable, as a Retry-After scale: 1.0 with every circuit closed,
// rising to 2.0 with every remote peer open. The server stretches shed
// guidance by it — when the owning peers are down this node is absorbing
// their load, so clients should back off proportionally.
func (r *Router) DegradedFactor() float64 {
	if len(r.peers) == 0 {
		return 1
	}
	open := 0
	for _, p := range r.peers {
		if p.br.State() == StateOpen {
			open++
		}
	}
	return 1 + float64(open)/float64(len(r.peers))
}

// Snapshot is the /debug/statusz peer table.
type Snapshot struct {
	Self  string         `json:"self"`
	Peers []PeerSnapshot `json:"peers"`
}

// PeerSnapshot is one remote peer's live state.
type PeerSnapshot struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	State       string `json:"state"` // closed, half-open, open
	Healthy     bool   `json:"healthy"`
	ConsecFails int    `json:"consec_fails,omitempty"`
	Forwards    int64  `json:"forwards"`
	Failures    int64  `json:"failures"`
	LastError   string `json:"last_error,omitempty"`
}

// Snapshot reports the live peer table, sorted by name.
func (r *Router) Snapshot() Snapshot {
	s := Snapshot{Self: r.self}
	for _, name := range r.Peers() {
		p := r.peers[name]
		ps := PeerSnapshot{
			Name:        name,
			URL:         p.url,
			State:       p.br.State().String(),
			Healthy:     p.healthy.Load(),
			ConsecFails: p.br.ConsecFails(),
			Forwards:    p.forwards.Load(),
			Failures:    p.failures.Load(),
		}
		if e := p.lastErr.Load(); e != nil {
			ps.LastError = *e
		}
		s.Peers = append(s.Peers, ps)
	}
	return s
}

// Start launches the background health prober (no-op when ProbeInterval
// is negative or the fleet has no remote peers).
func (r *Router) Start() {
	if r.cfg.ProbeInterval < 0 || len(r.peers) == 0 {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.closed:
				return
			case <-t.C:
				r.ProbeOnce()
			}
		}
	}()
}

// Close stops the prober and waits for it. Idempotent.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.closed) })
	r.wg.Wait()
}
