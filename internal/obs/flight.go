package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// RequestTrace: per-request event retention with timestamps and phase spans

// TimedEvent is one Event stamped on arrival at a RequestTrace.
type TimedEvent struct {
	Event
	// Seq is the event's position in the request's full stream (dropped
	// events still advance it).
	Seq uint64
	// TsUS is microseconds since the trace started.
	TsUS int64
}

// PhaseSpan is one completed pipeline phase observed by a RequestTrace:
// the interval between a phase-begin/phase-end pair.
type PhaseSpan struct {
	Phase   string `json:"phase"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// Seconds reports the span duration in seconds (histogram units).
func (s PhaseSpan) Seconds() float64 { return float64(s.DurUS) / 1e6 }

// DefaultTraceEventCap bounds retained events per request when
// NewRequestTrace is given a non-positive capacity. Fact-record traffic can
// reach tens of thousands of events per run; the ring keeps the newest.
const DefaultTraceEventCap = 4096

// RequestTrace is a Tracer that retains one request's event stream: events
// are stamped with microseconds-since-start, kept in a bounded ring
// (newest win), and phase begin/end pairs are folded into spans so callers
// can derive per-phase latencies without replaying the stream. It is safe
// for concurrent emitters (multi-seed merges fan one request's runs across
// workers).
type RequestTrace struct {
	id    string
	start time.Time

	mu     sync.Mutex
	events []TimedEvent
	cap    int
	next   int // oldest slot once the ring is full
	total  uint64
	spans  []PhaseSpan
	open   []openPhase
}

type openPhase struct {
	name string
	ts   int64
}

// NewRequestTrace creates a trace for one request. capacity bounds the
// retained events (DefaultTraceEventCap when <= 0).
func NewRequestTrace(id string, capacity int) *RequestTrace {
	if capacity <= 0 {
		capacity = DefaultTraceEventCap
	}
	return &RequestTrace{id: id, start: time.Now(), cap: capacity}
}

// ID returns the trace's request ID.
func (rt *RequestTrace) ID() string { return rt.id }

// Start returns when the trace began.
func (rt *RequestTrace) Start() time.Time { return rt.start }

// Event implements Tracer.
func (rt *RequestTrace) Event(e Event) {
	ts := time.Since(rt.start).Microseconds()
	rt.mu.Lock()
	te := TimedEvent{Event: e, Seq: rt.total, TsUS: ts}
	rt.total++
	if len(rt.events) < rt.cap {
		rt.events = append(rt.events, te)
	} else {
		rt.events[rt.next] = te
		rt.next++
		if rt.next == rt.cap {
			rt.next = 0
		}
	}
	switch e.Kind {
	case EvPhaseBegin:
		rt.open = append(rt.open, openPhase{e.Phase, ts})
	case EvPhaseEnd:
		// Innermost matching begin wins; phases are few, linear scan is fine.
		for i := len(rt.open) - 1; i >= 0; i-- {
			if rt.open[i].name == e.Phase {
				rt.spans = append(rt.spans, PhaseSpan{Phase: e.Phase, StartUS: rt.open[i].ts, DurUS: ts - rt.open[i].ts})
				rt.open = append(rt.open[:i], rt.open[i+1:]...)
				break
			}
		}
	}
	rt.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (rt *RequestTrace) Events() []TimedEvent {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]TimedEvent, 0, len(rt.events))
	out = append(out, rt.events[rt.next:]...)
	out = append(out, rt.events[:rt.next]...)
	return out
}

// Spans returns the completed phase spans in completion order.
func (rt *RequestTrace) Spans() []PhaseSpan {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]PhaseSpan, len(rt.spans))
	copy(out, rt.spans)
	return out
}

// Total reports how many events were ever received.
func (rt *RequestTrace) Total() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.total
}

// Dropped reports how many events fell out of the ring.
func (rt *RequestTrace) Dropped() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.total - uint64(len(rt.events))
}

// WriteJSONL writes the retained events as JSON lines in the same wire
// shape as JSONLWriter, preserving original sequence numbers and
// timestamps.
func (rt *RequestTrace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, te := range rt.Events() {
		rec := jsonlEvent{
			Seq:    te.Seq,
			TsUS:   te.TsUS,
			Kind:   te.Kind.String(),
			Phase:  te.Phase,
			Detail: te.Detail,
			N1:     te.N1, N2: te.N2, N3: te.N3, N4: te.N4,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes the retained events as a Chrome trace_event
// document, replayed with their original timestamps.
func (rt *RequestTrace) WriteChromeTrace(w io.Writer) (int64, error) {
	ct := NewChromeTrace()
	ct.mu.Lock()
	for _, te := range rt.Events() {
		ct.record(te.Event, te.TsUS)
	}
	ct.mu.Unlock()
	return ct.WriteTo(w)
}

// ---------------------------------------------------------------------------
// FlightRecorder: bounded ring of recent request summaries

// FlightEntry is one request's flight-recorder summary: identity, outcome,
// phase latencies, and the analysis dynamics the paper's tables are built
// from (steps, flushes, counterfactuals). The JSON shape is the
// /debug/statusz wire format.
type FlightEntry struct {
	TraceID   string    `json:"trace_id"`
	Route     string    `json:"route"`
	Start     time.Time `json:"start"`
	ElapsedUS int64     `json:"elapsed_us"`
	Status    int       `json:"status"`
	// Outcome is the terminal classification: ok, sound-partial,
	// quarantined, interrupted, shed, draining, or error.
	Outcome       string `json:"outcome"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	ErrorKind     string `json:"error_kind,omitempty"`
	CacheHit      bool   `json:"cache_hit,omitempty"`
	// Peer names the cluster peer that actually served a relayed request
	// (empty for locally served ones).
	Peer string `json:"peer,omitempty"`

	// Tenant is the admitted request's effective tenant: a configured
	// tenant, or "other" for everyone else (every request when the server
	// has no tenant table).
	Tenant string `json:"tenant,omitempty"`

	Steps           int `json:"steps,omitempty"`
	HeapFlushes     int `json:"heap_flushes,omitempty"`
	Counterfactuals int `json:"counterfactuals,omitempty"`
	Facts           int `json:"facts,omitempty"`
	Determinate     int `json:"determinate,omitempty"`

	Events        uint64      `json:"events,omitempty"`
	DroppedEvents uint64      `json:"dropped_events,omitempty"`
	Phases        []PhaseSpan `json:"phases,omitempty"`

	// ErrPhase/ErrInstr/ErrPos locate a quarantined panic (*RunError).
	ErrPhase string `json:"err_phase,omitempty"`
	ErrInstr int    `json:"err_instr,omitempty"`
	ErrPos   string `json:"err_pos,omitempty"`
}

// DefaultFlightEntries bounds the recorder when NewFlightRecorder is given
// a non-positive capacity.
const DefaultFlightEntries = 512

// FlightRecorder keeps the last N request summaries (and their retained
// event traces) in a ring. The cost per request is one short critical
// section at completion — nothing on the analysis hot path.
type FlightRecorder struct {
	mu    sync.Mutex
	cap   int
	ring  []flightSlot
	next  int // oldest slot once the ring is full
	total uint64
	byID  map[string]int
}

type flightSlot struct {
	entry FlightEntry
	trace *RequestTrace
}

// NewFlightRecorder creates a recorder holding up to capacity requests
// (DefaultFlightEntries when <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEntries
	}
	return &FlightRecorder{cap: capacity, byID: make(map[string]int)}
}

// Record stores one finished request. trace may be nil (tracing disabled);
// the summary is still recorded. Re-used trace IDs resolve to the newest
// recording.
func (f *FlightRecorder) Record(e FlightEntry, trace *RequestTrace) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var idx int
	if len(f.ring) < f.cap {
		idx = len(f.ring)
		f.ring = append(f.ring, flightSlot{})
	} else {
		idx = f.next
		f.next++
		if f.next == f.cap {
			f.next = 0
		}
		if old := f.ring[idx].entry.TraceID; f.byID[old] == idx {
			delete(f.byID, old)
		}
	}
	f.ring[idx] = flightSlot{entry: e, trace: trace}
	f.byID[e.TraceID] = idx
	f.total++
}

// Entries returns the retained summaries newest-first.
func (f *FlightRecorder) Entries() []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, 0, len(f.ring))
	// Oldest-first ring order is ring[next:], ring[:next]; emit reversed.
	for i := f.next - 1; i >= 0; i-- {
		out = append(out, f.ring[i].entry)
	}
	for i := len(f.ring) - 1; i >= f.next; i-- {
		out = append(out, f.ring[i].entry)
	}
	return out
}

// Lookup finds a retained request by trace ID.
func (f *FlightRecorder) Lookup(id string) (FlightEntry, *RequestTrace, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx, ok := f.byID[id]
	if !ok {
		return FlightEntry{}, nil, false
	}
	return f.ring[idx].entry, f.ring[idx].trace, true
}

// Len reports how many requests are retained; Total how many were ever
// recorded.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring)
}

func (f *FlightRecorder) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}
