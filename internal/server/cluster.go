package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"determinacy/internal/cluster"
)

// tryForward relays a validated /v1/analyze request to its ring owner.
// It returns true only when a peer response was actually written to the
// client; every failure mode — breaker open, refused, timed out,
// mid-body disconnect, oversize, shedding peer, garbage bytes — returns
// false, counts cluster_fallback_total{reason}, and lets the caller run
// the analysis locally. The caller has already checked that the cluster
// is configured, the request is non-streaming, the node is not draining,
// and the request was not already forwarded by a peer (loop prevention).
func (s *Server) tryForward(w http.ResponseWriter, r *http.Request, rt *reqTrace, req *AnalyzeRequest) bool {
	// Marshal before Route: a true Route admits the request through the
	// peer's circuit breaker, and that admission must always be settled by
	// a Forward call.
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	key := cluster.HashKey(req.Source)
	peerName, ok := s.cluster.Route(key)
	if !ok {
		// Owned locally, or the owner's circuit is open: serve here. Only
		// the unreachable-owner case is a degradation worth counting.
		if peerName != s.cluster.Self() {
			s.cluster.CountFallback(cluster.ReasonBreakerOpen)
		}
		return false
	}

	hdr := http.Header{}
	for _, k := range []string{"X-Tenant-ID", "X-API-Key", "Authorization"} {
		if v := r.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	hdr.Set("X-Request-ID", rt.id)
	rel, perr := s.cluster.Forward(r.Context(), peerName, routeAnalyze, body, hdr)
	if perr != nil {
		s.cluster.CountFallback(perr.Reason)
		return false
	}

	// Re-validate before a relayed byte reaches the client: the body must
	// decode as the exact wire shape, and is re-encoded from the decoded
	// struct — a peer (or the wire) can inject at most a well-formed
	// response. Bit flips that survive JSON were already caught upstream
	// by the relay digest check in cluster.Forward.
	if rel.Status == http.StatusOK {
		var resp AnalyzeResponse
		if err := json.Unmarshal(rel.Body, &resp); err != nil {
			s.cluster.NoteRelayGarbage(peerName, fmt.Errorf("relayed 200 body does not decode: %w", err))
			s.cluster.CountFallback(cluster.ReasonGarbage)
			return false
		}
		if rt != nil {
			rt.entry.Peer = peerName
		}
		s.noteAnalyzeSuccess(rt, &resp)
		s.writeJSON(w, http.StatusOK, &resp)
		return true
	}
	var er ErrorResponse
	if err := json.Unmarshal(rel.Body, &er); err != nil || er.Error.Kind == "" {
		s.cluster.NoteRelayGarbage(peerName, fmt.Errorf("relayed %d body does not decode", rel.Status))
		s.cluster.CountFallback(cluster.ReasonGarbage)
		return false
	}
	if rt != nil {
		rt.entry.Peer = peerName
	}
	s.writeErr(w, rt, rel.Status, er.Error)
	return true
}

// digested wraps an analysis handler so responses to forwarded requests
// are buffered and stamped with cluster.DigestHeader (sha256 of the
// body). The forwarding node verifies the digest over the bytes it
// received, so in-transit corruption that still parses as JSON — a
// flipped digit inside a fact value, say — is detected and served
// locally instead of relayed. Streaming responses are exempt (the router
// never forwards them; a hand-built forwarded stream request just skips
// the digest).
func (s *Server) digested(h func(http.ResponseWriter, *http.Request, *reqTrace)) func(http.ResponseWriter, *http.Request, *reqTrace) {
	return func(w http.ResponseWriter, r *http.Request, rt *reqTrace) {
		if r.Header.Get(cluster.ForwardedHeader) == "" {
			h(w, r, rt)
			return
		}
		if stream, _ := streamMode(r); stream {
			h(w, r, rt)
			return
		}
		dw := &digestWriter{inner: w}
		h(dw, r, rt)
		dw.finish()
	}
}

// digestWriter buffers one response and emits it with its body digest.
type digestWriter struct {
	inner  http.ResponseWriter
	buf    bytes.Buffer
	status int
}

func (dw *digestWriter) Header() http.Header { return dw.inner.Header() }

func (dw *digestWriter) WriteHeader(code int) {
	if dw.status == 0 {
		dw.status = code
	}
}

func (dw *digestWriter) Write(b []byte) (int, error) {
	if dw.status == 0 {
		dw.status = http.StatusOK
	}
	return dw.buf.Write(b)
}

func (dw *digestWriter) finish() {
	if dw.status == 0 {
		dw.status = http.StatusOK
	}
	sum := sha256.Sum256(dw.buf.Bytes())
	dw.inner.Header().Set(cluster.DigestHeader, hex.EncodeToString(sum[:]))
	dw.inner.WriteHeader(dw.status)
	_, _ = dw.inner.Write(dw.buf.Bytes())
}
