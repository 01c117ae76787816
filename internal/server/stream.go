package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"determinacy/internal/obs"
)

// writeJSONLine writes one JSON object and a newline; errors are dropped
// (the stream's client is gone, nothing useful remains to do).
func writeJSONLine(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	data = append(data, '\n')
	_, _ = w.Write(data)
}

// streamEvent is the wire shape of one streamed trace event; the same
// field names as the JSONL sink, wrapped in a type discriminator so
// clients can tell events from the final result line.
type streamEvent struct {
	Type   string `json:"type"`
	Seq    uint64 `json:"seq"`
	TsUS   int64  `json:"ts_us"`
	Ev     string `json:"ev"`
	Phase  string `json:"phase,omitempty"`
	Detail string `json:"detail,omitempty"`
	N1     int64  `json:"n1,omitempty"`
	N2     int64  `json:"n2,omitempty"`
	N3     int64  `json:"n3,omitempty"`
	N4     int64  `json:"n4,omitempty"`
}

// streamResult is the stream's terminal line: exactly one of Result and
// Error is set. Total/Dropped account for the full event stream (events
// beyond the per-request cap are dropped, not buffered).
type streamResult struct {
	Type    string           `json:"type"`
	Events  uint64           `json:"events"`
	Dropped uint64           `json:"dropped_events,omitempty"`
	Result  *AnalyzeResponse `json:"result,omitempty"`
	Error   *ErrorBody       `json:"error,omitempty"`
}

// streamWriter is a Tracer that forwards events to the client as they
// happen, framed as NDJSON lines or SSE data: records, flushing per
// event. Events beyond max are counted as dropped rather than written, so
// a fact-heavy run cannot stall its own analysis on a slow reader.
type streamWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	f     http.Flusher
	sse   bool
	start time.Time
	max   uint64
	seq   uint64
	drop  uint64
	// done flips when the terminal result line is written, so a racing
	// heartbeat tick can never append to a finished stream.
	done bool
}

func newStreamWriter(w http.ResponseWriter, sse bool, maxEvents int) *streamWriter {
	sw := &streamWriter{w: w, sse: sse, start: time.Now(), max: uint64(maxEvents)}
	sw.f, _ = w.(http.Flusher)
	return sw
}

// Event implements obs.Tracer.
func (sw *streamWriter) Event(e obs.Event) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.seq >= sw.max {
		sw.seq++
		sw.drop++
		return
	}
	rec := streamEvent{
		Type: "event", Seq: sw.seq, TsUS: time.Since(sw.start).Microseconds(),
		Ev: e.Kind.String(), Phase: e.Phase, Detail: e.Detail,
		N1: e.N1, N2: e.N2, N3: e.N3, N4: e.N4,
	}
	sw.seq++
	sw.writeLine(rec)
}

// writeLine frames and flushes one record; callers hold sw.mu or are the
// sole remaining writer.
func (sw *streamWriter) writeLine(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if sw.sse {
		_, _ = sw.w.Write([]byte("data: "))
	}
	data = append(data, '\n')
	if sw.sse {
		data = append(data, '\n')
	}
	_, _ = sw.w.Write(data)
	if sw.f != nil {
		sw.f.Flush()
	}
}

// finish writes the terminal result line and stops heartbeats.
func (sw *streamWriter) finish(resp *AnalyzeResponse, errBody *ErrorBody) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.done = true
	sw.writeLine(streamResult{Type: "result", Events: sw.seq, Dropped: sw.drop, Result: resp, Error: errBody})
}

// heartbeat writes one keepalive frame: an NDJSON {"type":"heartbeat"}
// line, or an SSE comment (ignored by EventSource clients). Either way
// idle-timeout proxies between server and client see traffic while a
// long analysis produces no events.
func (sw *streamWriter) heartbeat() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.done {
		return
	}
	if sw.sse {
		_, _ = sw.w.Write([]byte(": keepalive\n\n"))
		if sw.f != nil {
			sw.f.Flush()
		}
		return
	}
	sw.writeLine(struct {
		Type string `json:"type"`
	}{"heartbeat"})
}

// startHeartbeat emits a keepalive every interval until stop is called.
func (sw *streamWriter) startHeartbeat(every time.Duration) (stop func()) {
	t := time.NewTicker(every)
	quit := make(chan struct{})
	go func() {
		for {
			select {
			case <-t.C:
				sw.heartbeat()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		t.Stop()
		close(quit)
	}
}

// streamMode interprets the ?stream= query: "" (no streaming), "sse"
// (text/event-stream framing), or anything else truthy for NDJSON.
func streamMode(r *http.Request) (stream, sse bool) {
	v := r.URL.Query().Get("stream")
	switch v {
	case "", "0", "false":
		return false, false
	case "sse":
		return true, true
	default:
		return true, false
	}
}

// streamAnalyze answers an admitted /v1/analyze?stream=1 request: a 200
// header immediately, trace events as they happen, then a terminal result
// line. The analysis runs inside the same guard boundary as the buffered
// path, so a failure after the header becomes a structured error line on
// a 200 stream — the terminal line's "error" field is the status for
// streaming clients. Flight-recorder bookkeeping (quarantine, breaker,
// outcomes) matches the buffered path.
func (s *Server) streamAnalyze(w http.ResponseWriter, r *http.Request, rt *reqTrace, req *AnalyzeRequest, sse bool) {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	s.metrics.Counter(`server_responses_total{code="200"}`).Inc()

	sw := newStreamWriter(w, sse, obs.DefaultTraceEventCap)
	if hb := s.cfg.StreamHeartbeat; hb > 0 {
		defer sw.startHeartbeat(hb)()
	}
	tracer := obs.Multi(rt.obsTracer(), sw)

	// The run is parented on the request context: a client that
	// disconnects mid-stream cancels the analysis at the next guard
	// checkpoint instead of burning its slot to completion for nobody.

	t0 := time.Now()
	res, err := s.runAnalyze(r.Context(), req, rt, tracer)
	if err != nil {
		s.hLatency[rt.route].Observe(time.Since(t0).Seconds())
		_, body := s.classifyRunError(err)
		s.noteRunError(rt, body)
		sw.finish(nil, &body)
		return
	}
	s.noteSuccess()
	resp := buildResponse(req.name(), req.DetOnly, res)
	d := time.Since(t0)
	s.hLatency[rt.route].Observe(d.Seconds())
	resp.ElapsedMS = d.Milliseconds()
	s.noteAnalyzeSuccess(rt, resp)
	sw.finish(resp, nil)
}
