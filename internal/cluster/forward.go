package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"determinacy/internal/guard/faultinject"
)

// Fallback reasons, the labels of cluster_fallback_total{reason}. Every
// one names a peer failure mode that landed a request back on the local
// analysis path.
const (
	ReasonBreakerOpen  = "breaker-open"  // owner's circuit rejected the request
	ReasonBusy         = "busy"          // owner's per-peer in-flight cap reached
	ReasonTimeout      = "timeout"       // forward round trip exceeded ForwardTimeout
	ReasonRefused      = "refused"       // connection-level failure (refused, reset, drop)
	ReasonDisconnect   = "disconnect"    // peer hung up mid-body
	ReasonOversize     = "oversize"      // peer response exceeded maxRelayBytes
	ReasonGarbage      = "garbage"       // peer answered bytes that do not decode
	ReasonPeerShed     = "peer-shed"     // owner answered a 429; serve locally instead
	ReasonPeerDraining = "peer-draining" // owner answered 503 (draining or tripped)
	ReasonPeer5xx      = "peer-5xx"      // owner answered another 5xx
	ReasonPanic        = "panic"         // forward path panicked (fault injection)
	ReasonDraining     = "draining"      // this node is draining; no new forwards
)

// PeerError is a classified forward failure. The server maps it straight
// to a local fallback, counting cluster_fallback_total{reason=Reason}.
type PeerError struct {
	Peer   string
	Reason string
	Err    error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: peer %s: %s: %v", e.Peer, e.Reason, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Relay is a buffered peer response fit to return to the client after the
// server re-validates it (decode → re-encode, so a lying peer can inject
// at most a well-formed response, never raw bytes).
type Relay struct {
	Status int
	Body   []byte
}

// relayable reports whether a peer status is returned to the client
// rather than triggering a local fallback: success and the deterministic
// request-shaped 4xxs. 429/503/5xx mean "this peer can't take it" — the
// local node can, so it does.
func relayable(status int) bool {
	switch status {
	case http.StatusOK, http.StatusBadRequest,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		return true
	}
	return false
}

const (
	forwardBackoffBase = 25 * time.Millisecond
	forwardAttempts    = 2 // first try + one retry for connection-level failures
)

// Forward relays a non-streaming /v1/analyze body to peerName and buffers
// the full response. The caller must have gotten peerName from a true
// Route (which admitted the request through the peer's breaker); Forward
// always settles that admission with a breaker Success or Failure.
//
// Connection-level failures (refused, reset, dropped before any response
// byte) are retried once with exponential backoff and jitter; timeouts
// and mid-body disconnects are not (the budget is spent / the POST may
// have side effects in flight). Any failure returns a *PeerError whose
// Reason is a cluster_fallback_total label.
func (r *Router) Forward(ctx context.Context, peerName, path string, body []byte, hdr http.Header) (rel *Relay, perr *PeerError) {
	p, ok := r.peers[peerName]
	if !ok {
		return nil, &PeerError{Peer: peerName, Reason: ReasonRefused, Err: errors.New("unknown peer")}
	}
	select {
	case p.inflight <- struct{}{}:
		defer func() { <-p.inflight }()
	default:
		// Over the per-peer cap: nothing was tried, so release the breaker
		// admission without evidence and serve locally.
		p.br.Release()
		r.countRequest(peerName, ReasonBusy)
		return nil, &PeerError{Peer: peerName, Reason: ReasonBusy, Err: errors.New("peer in-flight cap reached")}
	}

	// Everything below runs inside a recovery boundary: an injected (or
	// real) panic on the forward path becomes a classified failure and a
	// local fallback, never a dropped request.
	defer func() {
		if v := recover(); v != nil {
			err := fmt.Errorf("forward panic: %v", v)
			p.failure(err)
			r.countRequest(peerName, ReasonPanic)
			rel, perr = nil, &PeerError{Peer: peerName, Reason: ReasonPanic, Err: err}
		}
	}()
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteClusterForward)
	}

	ctx, cancel := context.WithTimeout(ctx, r.cfg.ForwardTimeout)
	defer cancel()

	var lastErr *PeerError
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			backoff := forwardBackoffBase << (attempt - 1)
			backoff += time.Duration(rand.Int63n(int64(backoff)))
			select {
			case <-ctx.Done():
				attempt = forwardAttempts // budget spent
				continue
			case <-time.After(backoff):
			}
		}
		rel, lastErr = r.forwardOnce(ctx, p, path, body, hdr)
		if lastErr == nil {
			p.forwards.Add(1)
			p.success()
			r.countRequest(peerName, "relayed")
			return rel, nil
		}
		p.forwards.Add(1)
		if lastErr.Reason != ReasonRefused {
			break
		}
	}
	// Settle the breaker: a shedding peer is alive (success resets the
	// failure streak); every other failure mode counts against it.
	if lastErr.Reason == ReasonPeerShed {
		p.success()
	} else {
		p.failure(lastErr.Err)
	}
	r.countRequest(peerName, lastErr.Reason)
	return nil, lastErr
}

func (r *Router) forwardOnce(ctx context.Context, p *peer, path string, body []byte, hdr http.Header) (*Relay, *PeerError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, &PeerError{Peer: p.name, Reason: ReasonRefused, Err: err}
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, r.self)

	resp, err := r.do(req)
	if err != nil {
		reason := ReasonRefused
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			reason = ReasonTimeout
		}
		return nil, &PeerError{Peer: p.name, Reason: reason, Err: err}
	}
	defer resp.Body.Close()

	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes+1))
	if err != nil {
		reason := ReasonDisconnect
		if ctx.Err() != nil {
			reason = ReasonTimeout
		}
		return nil, &PeerError{Peer: p.name, Reason: reason, Err: err}
	}
	if int64(len(buf)) > maxRelayBytes {
		return nil, &PeerError{Peer: p.name, Reason: ReasonOversize,
			Err: fmt.Errorf("peer response exceeds %d bytes", maxRelayBytes)}
	}

	switch {
	case relayable(resp.StatusCode):
		// Verify the peer's body digest over the bytes as received: a bit
		// flip in transit that still parses as JSON downstream is garbage
		// all the same, and must fall back to local analysis.
		if want := resp.Header.Get(DigestHeader); want != "" {
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != want {
				return nil, &PeerError{Peer: p.name, Reason: ReasonGarbage,
					Err: fmt.Errorf("relay digest mismatch: body %s, header %s", got[:12], want[:min(len(want), 12)])}
			}
		}
		return &Relay{Status: resp.StatusCode, Body: buf}, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &PeerError{Peer: p.name, Reason: ReasonPeerShed,
			Err: fmt.Errorf("peer shed with HTTP 429")}
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, &PeerError{Peer: p.name, Reason: ReasonPeerDraining,
			Err: fmt.Errorf("peer answered HTTP 503")}
	default:
		return nil, &PeerError{Peer: p.name, Reason: ReasonPeer5xx,
			Err: fmt.Errorf("peer answered HTTP %d", resp.StatusCode)}
	}
}

// NoteRelayGarbage records that a relayed body failed to decode on this
// node: the peer is answering garbage, which counts against its circuit
// exactly like a transport failure.
func (r *Router) NoteRelayGarbage(peerName string, err error) {
	if p, ok := r.peers[peerName]; ok {
		p.failure(err)
	}
	r.countRequest(peerName, ReasonGarbage)
}
