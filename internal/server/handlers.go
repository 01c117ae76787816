package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"determinacy"
	"determinacy/internal/batch"
	"determinacy/internal/cluster"
	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/jsonenc"
	"determinacy/internal/obs"
	"determinacy/internal/parser"
	"determinacy/internal/server/sched"
	"determinacy/internal/version"
)

// AnalyzeRequest is the /v1/analyze body. Only Source is required.
type AnalyzeRequest struct {
	// Name labels the program in diagnostics ("program.js" by default).
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	Seed   uint64 `json:"seed,omitempty"`
	// Runs > 1 merges facts from that many consecutive seeds (§7), at
	// most 16.
	Runs int `json:"runs,omitempty"`
	// TimeoutMS is the client's wall-clock budget; the server's
	// MaxTimeout is a hard ceiling over it. A run stopped by the budget
	// still answers 200 with Partial=true and sound facts.
	TimeoutMS  int64 `json:"timeout_ms,omitempty"`
	MaxFlushes int   `json:"max_flushes,omitempty"`
	MaxSteps   int   `json:"max_steps,omitempty"`
	DOM        bool  `json:"dom,omitempty"`
	DetDOM     bool  `json:"detdom,omitempty"`
	Handlers   int   `json:"handlers,omitempty"`
	// DetOnly returns only determinate facts.
	DetOnly bool `json:"det_only,omitempty"`
}

// StatsJSON summarizes a run for the wire.
type StatsJSON struct {
	Steps           int `json:"steps"`
	HeapFlushes     int `json:"heap_flushes"`
	EnvFlushes      int `json:"env_flushes"`
	Counterfactuals int `json:"counterfactuals"`
	CFAborts        int `json:"cf_aborts"`
	HandlersRan     int `json:"handlers_ran"`
}

// AnalyzeResponse is the /v1/analyze result. Partial responses are sound:
// the facts reflect the executed prefix and DegradeReason says why the
// run stopped (budget, flush-cap, deadline, cancel). appendAnalyzeFields
// writes this layout by hand for /v1/analyze, so a change to these fields
// or to StatsJSON's must be made there too (TestAnalyzeBodyMatchesEncoder
// fails until it is).
type AnalyzeResponse struct {
	Name           string             `json:"name"`
	Partial        bool               `json:"partial"`
	DegradeReason  string             `json:"degrade_reason,omitempty"`
	NumFacts       int                `json:"num_facts"`
	NumDeterminate int                `json:"num_determinate"`
	Facts          []determinacy.Fact `json:"facts"`
	Stats          StatsJSON          `json:"stats"`
	ElapsedMS      int64              `json:"elapsed_ms"`
}

// ErrorBody is the structured error payload; every non-2xx response
// carries one.
type ErrorBody struct {
	// Kind is the machine-readable taxonomy: bad-request, body-too-large,
	// parse, parse-depth, uncaught-exception, panic, shed, draining,
	// interrupted, internal.
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Phase/Instr/Pos locate a recovered panic (kind "panic").
	Phase string `json:"phase,omitempty"`
	Instr int    `json:"instr,omitempty"`
	Pos   string `json:"pos,omitempty"`
	// RetryAfterMS is the Retry-After hint on 429/503 in milliseconds,
	// rounded up (minimum 1); the header carries it rounded up to whole
	// seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// retryAfter is a refusal's own Retry-After guidance (a scheduler
	// shed's); zero selects the pool-derived estimate. Never on the wire.
	retryAfter time.Duration
}

// ErrorResponse wraps ErrorBody for the wire.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// BatchProgram is one entry of a /v1/batch request.
type BatchProgram struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	Seed   uint64 `json:"seed,omitempty"`
}

// BatchRequest analyzes several programs under shared options, fanned
// across the server's worker pool. Admission counts the batch as one
// request; the per-request deadline covers the whole batch.
type BatchRequest struct {
	Programs   []BatchProgram `json:"programs"`
	TimeoutMS  int64          `json:"timeout_ms,omitempty"`
	MaxFlushes int            `json:"max_flushes,omitempty"`
	MaxSteps   int            `json:"max_steps,omitempty"`
	DOM        bool           `json:"dom,omitempty"`
	DetDOM     bool           `json:"detdom,omitempty"`
	Handlers   int            `json:"handlers,omitempty"`
	DetOnly    bool           `json:"det_only,omitempty"`
}

// BatchResult is one program's outcome: exactly one of Result and Error
// is set. A panicking program is quarantined into its Error slot; the
// rest of the batch still completes.
type BatchResult struct {
	Name   string           `json:"name"`
	Result *AnalyzeResponse `json:"result,omitempty"`
	Error  *ErrorBody       `json:"error,omitempty"`
}

// BatchResponse is the /v1/batch reply; always 200 with per-entry status.
type BatchResponse struct {
	Results   []BatchResult `json:"results"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	ElapsedMS int64         `json:"elapsed_ms"`
}

// routes builds the mux wrapped in the recovery/accounting middleware.
// The two analysis routes run inside the traced middleware, which mints
// the request's trace ID and records its flight-recorder entry.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+routeAnalyze, s.traced(routeAnalyze, s.digested(s.handleAnalyze)))
	mux.HandleFunc("POST "+routeBatch, s.traced(routeBatch, s.handleBatch))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/statusz", s.handleStatusz)
	mux.HandleFunc("GET /debug/tracez", s.handleTracez)
	return s.recoverWrap(mux)
}

// recoverWrap is the outermost panic boundary: anything escaping a
// handler — including faults injected outside the per-request guard
// boundary — becomes a structured 500, never a dead process or an empty
// reply. Responses are buffered by the handlers, so no partial body has
// been written when this fires.
func (s *Server) recoverWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cRequests.Inc()
		defer func() {
			if rec := recover(); rec != nil {
				re, ok := rec.(*guard.RunError)
				if !ok {
					re = guard.New("server", rec)
				}
				guard.CountRecovered(s.metrics, "server")
				s.noteQuarantine()
				s.writeErr(w, nil, http.StatusInternalServerError, ErrorBody{
					Kind: "panic", Message: re.Error(), Phase: re.Phase, Instr: re.Instr, Pos: re.Pos,
				})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client went away; nothing useful to do
	s.metrics.Counter(fmt.Sprintf(`server_responses_total{code="%d"}`, status)).Inc()
}

// writeErr writes a structured error response, first classifying it
// into the request's flight-recorder entry (rt may be nil). A 429 or 503
// carries a Retry-After hint: the body's own retryAfter when set (a
// scheduler shed's guidance), else the pool-derived estimate. Both forms
// round the hint up, so a client that obeys either never comes back
// early: the header to whole seconds (minimum 1, per RFC 9110), the
// body's retry_after_ms to whole milliseconds (minimum 1, so the field is
// always present).
func (s *Server) writeErr(w http.ResponseWriter, rt *reqTrace, status int, body ErrorBody) {
	if rt != nil {
		rt.entry.Status = status
	}
	noteError(rt, body)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		ra := body.retryAfter
		if ra <= 0 {
			ra = s.retryAfter()
		}
		body.RetryAfterMS = max(1, int64((ra+time.Millisecond-1)/time.Millisecond))
		w.Header().Set("Retry-After", strconv.FormatInt(max(1, int64((ra+time.Second-1)/time.Second)), 10))
	}
	s.writeJSON(w, status, ErrorResponse{Error: body})
}

// noteError classifies a failure into the request's flight-recorder
// entry: outcome, error kind, and a panic's location. rt may be nil.
func noteError(rt *reqTrace, body ErrorBody) {
	if rt == nil {
		return
	}
	rt.entry.ErrorKind = body.Kind
	rt.entry.Outcome = outcomeForKind(body.Kind)
	if body.Kind == "panic" {
		rt.entry.ErrPhase, rt.entry.ErrInstr, rt.entry.ErrPos = body.Phase, body.Instr, body.Pos
	}
}

// decodeBody reads a size-limited JSON body into v, answering 413/400
// itself; ok=false means the response has been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, rt *reqTrace, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeErr(w, rt, http.StatusRequestEntityTooLarge, ErrorBody{
				Kind:    "body-too-large",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			})
		} else {
			s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: "malformed JSON body: " + err.Error()})
		}
		return false
	}
	return true
}

// tenantID extracts the request's tenant identity: the X-Tenant-ID
// header, else the API key's prefix before the first "." (Authorization:
// Bearer <tenant>.<secret> or X-API-Key: <tenant>.<secret>), else "".
// IDs longer than 64 bytes or outside [A-Za-z0-9_.-] are treated as
// absent; unconfigured tenants pool into the shared "other" state anyway,
// so a hostile header can never mint scheduler state or metric labels.
func tenantID(r *http.Request) string {
	id := r.Header.Get("X-Tenant-ID")
	if id == "" {
		key := r.Header.Get("X-API-Key")
		if key == "" {
			const bearer = "Bearer "
			if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, bearer) {
				key = auth[len(bearer):]
			}
		}
		if i := strings.IndexByte(key, '.'); i > 0 {
			id = key[:i]
		}
	}
	if len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return ""
		}
	}
	return id
}

// schedRequest builds a route's admission request: tenant identity and
// the effective deadline driving deadline-aware shedding.
func (s *Server) schedRequest(r *http.Request, timeoutMS int64) *sched.Request {
	return &sched.Request{
		Tenant:   tenantID(r),
		Deadline: time.Now().Add(s.effTimeout(timeoutMS)),
	}
}

// noteAdmitted records the admitted request's effective tenant into its
// flight-recorder entry, and observes its per-tenant latency histogram on
// completion.
func (s *Server) noteAdmitted(rt *reqTrace, sreq *sched.Request, t0 time.Time) func() {
	if rt != nil {
		rt.entry.Tenant = sreq.Tenant
	}
	h := s.metrics.Histogram(fmt.Sprintf("server_tenant_request_seconds{tenant=%q}", sreq.Tenant), latencyBuckets...)
	return func() { h.Observe(time.Since(t0).Seconds()) }
}

// writeAdmissionError maps an admission refusal to its typed response: a
// scheduler shed is a 429 whose Retry-After carries the scheduler's
// computed guidance (queue depth × observed p50, jittered), draining is
// the drain 503, and anything else means the client went away while
// queued.
func (s *Server) writeAdmissionError(w http.ResponseWriter, rt *reqTrace, err error) {
	var shed *sched.ShedError
	switch {
	case errors.As(err, &shed):
		// With owning peers down, this node absorbs their keyspace: shed
		// guidance stretches by the cluster's degraded factor so clients
		// back off proportionally instead of hammering the survivors.
		if s.cluster != nil {
			shed.ScaleRetryAfter(s.cluster.DegradedFactor(), s.cfg.MaxTimeout)
		}
		s.writeErr(w, rt, http.StatusTooManyRequests, ErrorBody{
			Kind:       "shed",
			Message:    fmt.Sprintf("admission refused (%s); retry later", shed.Reason),
			retryAfter: shed.RetryAfter,
		})
	case errors.Is(err, sched.ErrDraining):
		s.writeErr(w, rt, http.StatusServiceUnavailable, ErrorBody{Kind: "draining", Message: "server is draining; retry against another replica"})
	default:
		// The client abandoned the request while queued; the status is
		// best-effort since nobody is reading it.
		s.writeErr(w, rt, http.StatusServiceUnavailable, ErrorBody{Kind: "interrupted", Message: "server: admission aborted: " + err.Error()})
	}
}

// classifyRunError maps an analysis failure to its status and wire form.
// Partial results never land here — they answer 200.
func (s *Server) classifyRunError(err error) (int, ErrorBody) {
	var re *determinacy.RunError
	var perr *parser.Error
	switch {
	case errors.As(err, &re):
		return http.StatusInternalServerError, ErrorBody{
			Kind: "panic", Message: re.Error(), Phase: re.Phase, Instr: re.Instr, Pos: re.Pos,
		}
	case errors.Is(err, determinacy.ErrParseDepth):
		return http.StatusBadRequest, ErrorBody{Kind: "parse-depth", Message: err.Error()}
	case errors.As(err, &perr):
		return http.StatusBadRequest, ErrorBody{Kind: "parse", Message: err.Error()}
	case errors.Is(err, determinacy.ErrUncaughtException):
		return http.StatusUnprocessableEntity, ErrorBody{Kind: "uncaught-exception", Message: err.Error()}
	case guard.ContextReason(err) != guard.DegradeNone:
		// Only multi-seed merges surface interrupts as errors (a skipped
		// seed has no partial store to merge); single runs seal partial.
		return http.StatusServiceUnavailable, ErrorBody{Kind: "interrupted", Message: err.Error()}
	default:
		return http.StatusInternalServerError, ErrorBody{Kind: "internal", Message: err.Error()}
	}
}

// noteRunError applies a classified failure's side effects: quarantine
// accounting for panics, and the flight-recorder outcome. Shared by the
// buffered and streaming response paths.
func (s *Server) noteRunError(rt *reqTrace, body ErrorBody) {
	if body.Kind == "panic" {
		s.noteQuarantine()
		guard.CountRecovered(s.metrics, body.Phase)
	}
	noteError(rt, body)
}

// writeRunError classifies an analysis failure into a structured
// response.
func (s *Server) writeRunError(w http.ResponseWriter, rt *reqTrace, err error) {
	status, body := s.classifyRunError(err)
	s.noteRunError(rt, body)
	s.writeErr(w, rt, status, body)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, rt *reqTrace) {
	var req AnalyzeRequest
	if !s.decodeBody(w, r, rt, &req) {
		return
	}
	if req.Source == "" {
		s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: `missing "source"`})
		return
	}
	if req.Runs < 0 || req.Runs > maxRuns {
		s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{
			Kind: "bad-request", Message: fmt.Sprintf("runs must be in [0,%d], got %d", maxRuns, req.Runs),
		})
		return
	}
	if req.TimeoutMS < 0 || req.MaxFlushes < 0 || req.MaxSteps < 0 || req.Handlers < 0 {
		s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: "numeric options must be non-negative"})
		return
	}
	stream, sse := streamMode(r)
	// Sharded serving: a non-streaming request whose content-hash owner is
	// a healthy remote peer is relayed there (warm caches, cluster-wide
	// compile-once). Requests already forwarded once are always served
	// here (loop prevention), as is everything while draining, and every
	// peer failure mode falls through to the local path below.
	if s.cluster != nil && !stream && !s.draining.Load() &&
		r.Header.Get(cluster.ForwardedHeader) == "" {
		if s.tryForward(w, r, rt, &req) {
			return
		}
	}
	sreq := s.schedRequest(r, req.TimeoutMS)
	s.wg.Add(1)
	defer s.wg.Done()
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteServerAdmit)
	}
	if err := s.acquire(r.Context(), sreq, s.hQueueWait[rt.route]); err != nil {
		s.writeAdmissionError(w, rt, err)
		return
	}
	defer s.release(sreq)

	if stream {
		defer s.noteAdmitted(rt, sreq, time.Now())()
		s.streamAnalyze(w, r, rt, &req, sse)
		return
	}

	// The request's time runs from admission until its response is built,
	// facts included, as on /v1/batch and the stream; writing the body to
	// the client is not counted.
	t0 := time.Now()
	observeTenant := s.noteAdmitted(rt, sreq, t0)
	stop := func() time.Duration {
		d := time.Since(t0)
		s.hLatency[rt.route].Observe(d.Seconds())
		observeTenant()
		return d
	}
	res, err := s.runAnalyze(r.Context(), &req, rt, rt.obsTracer())
	if err != nil {
		stop()
		s.writeRunError(w, rt, err)
		return
	}
	s.noteSuccess()
	resp := responseHead(req.name(), res)
	bp := responseBufs.Get().(*[]byte)
	b := appendAnalyzeFields((*bp)[:0], resp, res, req.DetOnly)
	resp.ElapsedMS = stop().Milliseconds()
	b = appendElapsed(b, resp.ElapsedMS)
	s.noteAnalyzeSuccess(rt, resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the client went away; nothing useful to do
	s.metrics.Counter(`server_responses_total{code="200"}`).Inc()
	if cap(b) <= maxPooledBody {
		*bp = b
		responseBufs.Put(bp)
	}
}

// responseBufs recycles /v1/analyze body buffers. A fact-heavy body runs
// to hundreds of KiB, so one that grew past maxPooledBody is left to the
// collector rather than pinned in the pool.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// appendAnalyzeFields and appendElapsed append resp as JSON with a
// trailing newline, taking its facts from res rather than resp.Facts: the
// bytes json.NewEncoder(w).Encode(buildResponse(...)) writes. The body
// stops before the elapsed_ms value, so the handler can stop its clock
// after the facts are rendered.
func appendAnalyzeFields(b []byte, resp *AnalyzeResponse, res *determinacy.Result, detOnly bool) []byte {
	b = jsonenc.AppendString(append(b, `{"name":`...), resp.Name)
	b = strconv.AppendBool(append(b, `,"partial":`...), resp.Partial)
	if resp.DegradeReason != "" {
		b = jsonenc.AppendString(append(b, `,"degrade_reason":`...), resp.DegradeReason)
	}
	b = strconv.AppendInt(append(b, `,"num_facts":`...), int64(resp.NumFacts), 10)
	b = strconv.AppendInt(append(b, `,"num_determinate":`...), int64(resp.NumDeterminate), 10)
	b = res.AppendFactsJSON(append(b, `,"facts":`...), detOnly)
	st := &resp.Stats
	b = strconv.AppendInt(append(b, `,"stats":{"steps":`...), int64(st.Steps), 10)
	b = strconv.AppendInt(append(b, `,"heap_flushes":`...), int64(st.HeapFlushes), 10)
	b = strconv.AppendInt(append(b, `,"env_flushes":`...), int64(st.EnvFlushes), 10)
	b = strconv.AppendInt(append(b, `,"counterfactuals":`...), int64(st.Counterfactuals), 10)
	b = strconv.AppendInt(append(b, `,"cf_aborts":`...), int64(st.CFAborts), 10)
	b = strconv.AppendInt(append(b, `,"handlers_ran":`...), int64(st.HandlersRan), 10)
	return append(b, `},"elapsed_ms":`...)
}

// appendElapsed ends a body begun by appendAnalyzeFields with the
// elapsed_ms value.
func appendElapsed(b []byte, ms int64) []byte {
	return append(strconv.AppendInt(b, ms, 10), "}\n"...)
}

// noteAnalyzeSuccess copies a successful response's headline stats into
// the request's flight-recorder entry and classifies its outcome: a
// degraded-but-sound partial result is "sound-partial", everything else
// "ok".
func (s *Server) noteAnalyzeSuccess(rt *reqTrace, resp *AnalyzeResponse) {
	if rt == nil {
		return
	}
	rt.entry.Status = http.StatusOK
	if resp.Partial {
		rt.entry.Outcome = outcomeSoundPartial
		rt.entry.DegradeReason = resp.DegradeReason
	} else {
		rt.entry.Outcome = outcomeOK
	}
	rt.entry.Steps = resp.Stats.Steps
	rt.entry.HeapFlushes = resp.Stats.HeapFlushes
	rt.entry.Counterfactuals = resp.Stats.Counterfactuals
	rt.entry.Facts = resp.NumFacts
	rt.entry.Determinate = resp.NumDeterminate
}

// analyzeOptions builds run options shared by both endpoints.
func (s *Server) analyzeOptions(seed uint64, maxFlushes, maxSteps, handlers int, dom, detDOM bool) determinacy.Options {
	if maxFlushes == 0 {
		maxFlushes = 1000
	}
	return determinacy.Options{
		Seed:             seed,
		WithDOM:          dom || detDOM,
		DeterministicDOM: detDOM,
		RunHandlers:      handlers,
		MaxFlushes:       maxFlushes,
		MaxSteps:         maxSteps,
		FactCache:        s.cfg.FactCache,
	}
}

// name is the program's label in responses: Name, else "program.js".
func (req *AnalyzeRequest) name() string {
	if req.Name == "" {
		return "program.js"
	}
	return req.Name
}

// runAnalyze executes one request inside the guard boundary, under a
// context carrying the effective deadline and the drain force-cancel. tracer (nil to
// disable) receives the run's event stream; rt (nil outside traced
// handlers) collects cache-hit attribution.
func (s *Server) runAnalyze(reqCtx context.Context, req *AnalyzeRequest, rt *reqTrace, tracer obs.Tracer) (res *determinacy.Result, err error) {
	ctx, cancel := context.WithTimeout(reqCtx, s.effTimeout(req.TimeoutMS))
	defer cancel()
	// Drain past its budget force-cancels every in-flight run.
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()
	defer guard.Boundary(&err, "server", nil)
	if faultinject.Armed() {
		faultinject.Hit(faultinject.SiteServerRequest)
	}

	opts := s.analyzeOptions(req.Seed, req.MaxFlushes, req.MaxSteps, req.Handlers, req.DOM, req.DetDOM)
	opts.Tracer = tracer

	res, hit, err := s.analyzeOne(ctx, req.name(), req.Source, req.Runs, opts)
	if rt != nil {
		rt.entry.CacheHit = hit
	}
	return res, err
}

// analyzeOne compiles src through the server's compile cache, reports the
// cache outcome to opts.Tracer and runs the analysis. runs > 1 merges
// that many consecutive seeds from opts.Seed (§7). hit reports whether the
// front-end work was served from the cache.
func (s *Server) analyzeOne(ctx context.Context, name, src string, runs int, opts determinacy.Options) (res *determinacy.Result, hit bool, err error) {
	p, hit, err := s.cache.CompileHit(name, src)
	if opts.Tracer != nil {
		detail := "miss"
		if hit {
			detail = "hit"
		}
		opts.Tracer.Event(obs.Event{Kind: obs.EvCache, Phase: "progcache", Detail: detail})
	}
	if err != nil {
		return nil, hit, err
	}
	if runs > 1 {
		// Serial within the request: the server's concurrency comes from
		// concurrent requests, so one merge sweep never hoards workers.
		opts.Workers = 1
		seeds := make([]uint64, runs)
		for i := range seeds {
			seeds[i] = opts.Seed + uint64(i)
		}
		res, err = determinacy.AnalyzeRunsContext(ctx, p, opts, seeds...)
	} else {
		res, err = determinacy.AnalyzeProgramContext(ctx, p, opts)
	}
	if err != nil {
		return nil, hit, err
	}
	return res, hit, nil
}

// buildResponse is the response for res with its facts, as /v1/batch and
// the streamed result line encode it.
func buildResponse(name string, detOnly bool, res *determinacy.Result) *AnalyzeResponse {
	resp := responseHead(name, res)
	if detOnly {
		resp.Facts = res.DeterminateFacts()
	} else {
		resp.Facts = res.Facts()
	}
	if resp.Facts == nil {
		resp.Facts = []determinacy.Fact{} // JSON [] beats null for clients
	}
	return resp
}

// responseHead is the response for res without its facts.
func responseHead(name string, res *determinacy.Result) *AnalyzeResponse {
	st := res.Stats
	return &AnalyzeResponse{
		Name:           name,
		Partial:        res.Partial,
		DegradeReason:  string(res.Degraded),
		NumFacts:       res.NumFacts(),
		NumDeterminate: res.NumDeterminate(),
		Stats: StatsJSON{
			Steps:           st.Steps,
			HeapFlushes:     st.HeapFlushes,
			EnvFlushes:      st.EnvFlushes,
			Counterfactuals: st.Counterfacts,
			CFAborts:        st.CFAborts,
			HandlersRan:     res.HandlersRan,
		},
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, rt *reqTrace) {
	var req BatchRequest
	if !s.decodeBody(w, r, rt, &req) {
		return
	}
	if len(req.Programs) == 0 {
		s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: `missing "programs"`})
		return
	}
	if len(req.Programs) > maxBatchPrograms {
		s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{
			Kind: "bad-request", Message: fmt.Sprintf("batch of %d exceeds the %d-program cap", len(req.Programs), maxBatchPrograms),
		})
		return
	}
	for i, p := range req.Programs {
		if p.Source == "" {
			s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: fmt.Sprintf(`program %d: missing "source"`, i)})
			return
		}
	}
	if req.TimeoutMS < 0 || req.MaxFlushes < 0 || req.MaxSteps < 0 || req.Handlers < 0 {
		s.writeErr(w, rt, http.StatusBadRequest, ErrorBody{Kind: "bad-request", Message: "numeric options must be non-negative"})
		return
	}
	sreq := s.schedRequest(r, req.TimeoutMS)
	s.wg.Add(1)
	defer s.wg.Done()
	if err := s.acquire(r.Context(), sreq, s.hQueueWait[rt.route]); err != nil {
		s.writeAdmissionError(w, rt, err)
		return
	}
	defer s.release(sreq)

	t0 := time.Now()
	observeTenant := s.noteAdmitted(rt, sreq, t0)
	defer observeTenant()
	ctx, cancel := context.WithTimeout(r.Context(), s.effTimeout(req.TimeoutMS))
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	// One request-scoped tracer across the whole fan-out: the sinks are
	// mutex-guarded, so concurrent jobs interleave rather than race.
	tracer := rt.obsTracer()
	var cacheHits atomic.Int64

	type progOut struct {
		resp *AnalyzeResponse
		err  error
	}
	outs, qs := batch.MapCtx(ctx, s.pool, len(req.Programs), func(i int) progOut {
		p := req.Programs[i]
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("program-%d.js", i)
		}
		if faultinject.Armed() {
			faultinject.Hit(faultinject.SiteServerRequest)
		}
		opts := s.analyzeOptions(p.Seed, req.MaxFlushes, req.MaxSteps, req.Handlers, req.DOM, req.DetDOM)
		opts.Tracer = tracer
		res, hit, err := s.analyzeOne(ctx, name, p.Source, 1, opts)
		if hit {
			cacheHits.Add(1)
		}
		if err != nil {
			return progOut{err: err}
		}
		return progOut{resp: buildResponse(name, req.DetOnly, res)}
	})
	// A quarantined (panicked) or cancel-skipped job reports through its
	// error slot; the batch as a whole still answers 200.
	for _, q := range qs {
		outs[q.Index].err = q.Err
	}

	bresp := BatchResponse{Results: make([]BatchResult, len(outs)), ElapsedMS: time.Since(t0).Milliseconds()}
	anyPanic := false
	var firstPanic *ErrorBody
	for i, out := range outs {
		name := req.Programs[i].Name
		if name == "" {
			name = fmt.Sprintf("program-%d.js", i)
		}
		br := BatchResult{Name: name}
		switch {
		case out.err != nil:
			_, body := s.classifyRunError(out.err)
			if body.Kind == "panic" {
				anyPanic = true
				if firstPanic == nil {
					firstPanic = &body
				}
				guard.CountRecovered(s.metrics, "batch")
			}
			br.Error = &body
			bresp.Failed++
		default:
			br.Result = out.resp
			bresp.Completed++
			if out.resp != nil {
				rt.entry.Steps += out.resp.Stats.Steps
				rt.entry.HeapFlushes += out.resp.Stats.HeapFlushes
				rt.entry.Counterfactuals += out.resp.Stats.Counterfactuals
				rt.entry.Facts += out.resp.NumFacts
				rt.entry.Determinate += out.resp.NumDeterminate
			}
		}
		bresp.Results[i] = br
	}
	// The batch's terminal outcome: quarantined when any entry panicked
	// (with that entry's *RunError location), sound-partial when entries
	// failed for other reasons, ok when everything completed.
	rt.entry.CacheHit = int(cacheHits.Load()) == len(req.Programs)
	switch {
	case anyPanic:
		s.noteQuarantine()
		rt.entry.Outcome = outcomeQuarantined
		rt.entry.ErrorKind = "panic"
		rt.entry.ErrPhase, rt.entry.ErrInstr, rt.entry.ErrPos = firstPanic.Phase, firstPanic.Instr, firstPanic.Pos
	case bresp.Failed > 0:
		s.noteSuccess()
		rt.entry.Outcome = outcomeSoundPartial
	default:
		s.noteSuccess()
		rt.entry.Outcome = outcomeOK
	}
	s.hLatency[rt.route].Observe(time.Since(t0).Seconds())
	s.writeJSON(w, http.StatusOK, bresp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Gauge("server_uptime_seconds").Set(time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.WriteProm(w)
}

// handleHealthz is liveness: 200 as long as the process serves, draining
// or not. The payload carries the build identity (satellite: -version)
// and the drain state with the remaining in-flight count, so operators
// watching a drain can see it empty out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":           "ok",
		"version":          version.String(),
		"uptime_ms":        time.Since(s.start).Milliseconds(),
		"draining":         s.draining.Load(),
		"inflight":         s.sched.Snapshot().InFlight,
		"drain_timeout_ms": s.cfg.DrainTimeout.Milliseconds(),
	}
	if s.cluster != nil {
		body["cluster_self"] = s.cluster.Self()
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness: 503 while draining or while the quarantine
// circuit breaker is open, so balancers route around this replica.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.writeErr(w, nil, http.StatusServiceUnavailable, ErrorBody{Kind: "draining", Message: "not ready: draining"})
	case s.breakerOpen.Load():
		s.writeErr(w, nil, http.StatusServiceUnavailable, ErrorBody{Kind: "circuit-open", Message: fmt.Sprintf(
			"not ready: %d consecutive quarantined requests tripped the breaker", s.consecQuarantine.Load())})
	default:
		s.writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}
