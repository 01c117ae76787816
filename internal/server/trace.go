package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"text/tabwriter"
	"time"

	"determinacy/internal/guard"
	"determinacy/internal/obs"
	"determinacy/internal/version"
)

// Terminal outcomes recorded per request in the flight recorder. Every
// response lands on exactly one.
const (
	outcomeOK           = "ok"            // 200, complete result
	outcomeSoundPartial = "sound-partial" // 200, degraded but sound (or batch with failed entries)
	outcomeQuarantined  = "quarantined"   // analysis panicked; isolated as a structured 500
	outcomeInterrupted  = "interrupted"   // client went away / merge interrupted
	outcomeShed         = "shed"          // 429, admission queue full
	outcomeDraining     = "draining"      // 503, server draining
	outcomeError        = "error"         // any other 4xx/5xx
)

// outcomeForKind maps an ErrorBody kind to its flight-recorder outcome.
func outcomeForKind(kind string) string {
	switch kind {
	case "shed":
		return outcomeShed
	case "draining":
		return outcomeDraining
	case "interrupted":
		return outcomeInterrupted
	case "panic":
		return outcomeQuarantined
	default:
		return outcomeError
	}
}

// reqTrace is one request's observability context: identity, the retained
// event stream (nil when tracing is disabled), and the flight-recorder
// summary under construction.
type reqTrace struct {
	id     string
	route  string
	start  time.Time
	tracer *obs.RequestTrace
	entry  obs.FlightEntry
}

// obsTracer returns the per-request Tracer as an interface, or a true nil
// interface when tracing is disabled — never a typed nil, which would
// defeat the `if tracer == nil` fast path at every emission site.
func (rt *reqTrace) obsTracer() obs.Tracer {
	if rt == nil || rt.tracer == nil {
		return nil
	}
	return rt.tracer
}

// requestID returns the client's X-Request-ID when it is usable as a label
// (1-64 chars of [A-Za-z0-9_.-]), else a freshly minted random ID.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if n := len(id); n >= 1 && n <= 64 {
		ok := true
		for i := 0; i < n; i++ {
			c := id[i]
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
				c == '_', c == '.', c == '-':
			default:
				ok = false
			}
		}
		if ok {
			return id
		}
	}
	var b [8]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// statusWriter records the first status code written and forwards Flush
// (streaming responses need it through the wrapper).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traced wraps an analysis handler with per-request observability: it
// mints or accepts the trace ID, echoes it on X-Request-ID, attaches the
// per-request Tracer, and — no matter how the handler exits — records a
// flight-recorder entry. A panic unwinding through here is recorded as
// quarantined with its *RunError location before re-panicking into
// recoverWrap, which writes the structured 500; entries for poisoned
// requests are never dropped.
func (s *Server) traced(route string, h func(http.ResponseWriter, *http.Request, *reqTrace)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt := &reqTrace{id: requestID(r), route: route, start: time.Now()}
		if !s.cfg.DisableTracing {
			rt.tracer = obs.NewRequestTrace(rt.id, obs.DefaultTraceEventCap)
		}
		w.Header().Set("X-Request-ID", rt.id)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				re, ok := rec.(*guard.RunError)
				if !ok {
					re = guard.New("server", rec)
				}
				rt.entry.Status = http.StatusInternalServerError
				rt.entry.Outcome = outcomeQuarantined
				rt.entry.ErrorKind = "panic"
				rt.entry.ErrPhase, rt.entry.ErrInstr, rt.entry.ErrPos = re.Phase, re.Instr, re.Pos
				s.record(rt)
				panic(re)
			}
			if sw.status != 0 {
				rt.entry.Status = sw.status
			}
			s.record(rt)
		}()
		h(sw, r, rt)
	}
}

// record finalizes one request's flight-recorder entry: identity, elapsed
// time, trace-derived phase spans (also observed into the per-phase
// latency histograms), and a status-derived outcome when the handler did
// not classify one.
func (s *Server) record(rt *reqTrace) {
	rt.entry.TraceID = rt.id
	rt.entry.Route = rt.route
	rt.entry.Start = rt.start
	rt.entry.ElapsedUS = time.Since(rt.start).Microseconds()
	if rt.tracer != nil {
		rt.entry.Events = rt.tracer.Total()
		rt.entry.DroppedEvents = rt.tracer.Dropped()
		rt.entry.Phases = rt.tracer.Spans()
		for _, sp := range rt.entry.Phases {
			s.metrics.Histogram(fmt.Sprintf("server_phase_seconds{phase=%q}", sp.Phase), phaseBuckets...).
				Observe(sp.Seconds())
		}
	}
	if rt.entry.Outcome == "" {
		if rt.entry.Status == 0 || rt.entry.Status < 400 {
			rt.entry.Outcome = outcomeOK
		} else {
			rt.entry.Outcome = outcomeError
		}
	}
	s.flight.Record(rt.entry, rt.tracer)
}

// handleStatusz serves the flight recorder: a server summary plus the
// retained request entries, newest first. ?format=text renders a
// human-readable table; the default is JSON.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	entries := s.flight.Entries()
	snap := s.sched.Snapshot()
	summary := map[string]any{
		"version":        version.String(),
		"uptime_ms":      time.Since(s.start).Milliseconds(),
		"draining":       s.draining.Load(),
		"breaker_open":   s.breakerOpen.Load(),
		"inflight":       snap.InFlight,
		"queued":         snap.Queued,
		"goroutines":     runtime.NumGoroutine(),
		"requests_total": s.cRequests.Value(),
		"recorded":       s.flight.Total(),
		"retained":       len(entries),
	}
	if r.URL.Query().Get("format") != "text" {
		body := map[string]any{"server": summary, "scheduler": snap, "entries": entries}
		if s.cluster != nil {
			body["cluster"] = s.cluster.Snapshot()
		}
		s.writeJSON(w, http.StatusOK, body)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "detserve %s  uptime=%s  draining=%v  breaker_open=%v  inflight=%d  queued=%d  goroutines=%d\n",
		version.String(), time.Since(s.start).Round(time.Millisecond),
		s.draining.Load(), s.breakerOpen.Load(), snap.InFlight, snap.Queued, runtime.NumGoroutine())
	fmt.Fprintf(w, "requests=%d  recorded=%d  retained=%d\n\n", s.cRequests.Value(), s.flight.Total(), len(entries))
	fmt.Fprint(w, "scheduler")
	if snap.P50MS > 0 {
		fmt.Fprintf(w, "  p50_service=%.1fms", snap.P50MS)
	}
	fmt.Fprintln(w)
	for _, ts := range snap.Tenants {
		fmt.Fprintf(w, "  tenant=%s weight=%g queued=%d inflight=%d admitted=%d shed=%d\n",
			ts.Tenant, ts.Weight, ts.Queued, ts.InFlight, ts.Admitted, ts.Shed)
	}
	if s.cluster != nil {
		cs := s.cluster.Snapshot()
		fmt.Fprintf(w, "cluster self=%s\n", cs.Self)
		for _, ps := range cs.Peers {
			fmt.Fprintf(w, "  peer=%s url=%s state=%s healthy=%v forwards=%d failures=%d",
				ps.Name, ps.URL, ps.State, ps.Healthy, ps.Forwards, ps.Failures)
			if ps.LastError != "" {
				fmt.Fprintf(w, " last_error=%q", ps.LastError)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TRACE_ID\tROUTE\tSTATUS\tOUTCOME\tELAPSED\tCACHE\tSTEPS\tFLUSHES\tDEGRADE\tERROR")
	for _, e := range entries {
		cache := "miss"
		if e.CacheHit {
			cache = "hit"
		}
		errCol := e.ErrorKind
		if e.ErrPhase != "" {
			errCol += "@" + e.ErrPhase
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%d\t%d\t%s\t%s\n",
			e.TraceID, e.Route, e.Status, e.Outcome,
			time.Duration(e.ElapsedUS)*time.Microsecond,
			cache, e.Steps, e.HeapFlushes, e.DegradeReason, errCol)
	}
	_ = tw.Flush()
}

// handleTracez dumps one retained request's event stream. ?id= selects the
// request; ?format=chrome renders a Chrome trace_event document, the
// default is JSONL (one summary line, then one line per event).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeErr(w, nil, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: `missing "id" query parameter`})
		return
	}
	entry, tr, ok := s.flight.Lookup(id)
	if !ok {
		s.writeErr(w, nil, http.StatusNotFound, ErrorBody{Kind: "not-found", Message: "trace " + id + " not in the flight recorder (evicted or never seen)"})
		return
	}
	if tr == nil {
		s.writeErr(w, nil, http.StatusNotFound, ErrorBody{Kind: "not-found", Message: "trace " + id + " has no retained events (tracing disabled)"})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = tr.WriteChromeTrace(w)
		s.metrics.Counter(`server_responses_total{code="200"}`).Inc()
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	writeJSONLine(w, map[string]any{"type": "summary", "entry": entry})
	_ = tr.WriteJSONL(w)
	s.metrics.Counter(`server_responses_total{code="200"}`).Inc()
}

// DebugHandler serves the debug surface alone — /debug/statusz,
// /debug/tracez and /metrics — for mounting on a private listener
// (cmd/detserve -debug-addr) next to net/http/pprof.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/statusz", s.handleStatusz)
	mux.HandleFunc("GET /debug/tracez", s.handleTracez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}
