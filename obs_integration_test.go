package determinacy_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/obs"
	"determinacy/internal/workload"
)

// TestObsPipelineEvents runs the whole pipeline (parse → lower → exec →
// specialize) with a collector attached and checks the event stream has the
// promised shape: phase pairs in order, reasoned heap flushes, balanced
// counterfactual nesting, and fact recording.
func TestObsPipelineEvents(t *testing.T) {
	col := obs.NewCollector(1 << 14)
	res, err := determinacy.Analyze(fig2Bench, determinacy.Options{
		Seed: 2, MuJSLocals: true, Out: io.Discard, Tracer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Specialize(determinacy.SpecializeOptions{}); err != nil {
		t.Fatal(err)
	}

	// Phase begin/end events pair up and nest properly per phase name.
	open := map[string]int{}
	var order []string
	for _, e := range col.Events() {
		switch e.Kind {
		case obs.EvPhaseBegin:
			open[e.Phase]++
			order = append(order, e.Phase)
		case obs.EvPhaseEnd:
			open[e.Phase]--
			if open[e.Phase] < 0 {
				t.Fatalf("phase %q ended before it began", e.Phase)
			}
		}
	}
	for p, n := range open {
		if n != 0 {
			t.Errorf("phase %q left %d unclosed begins", p, n)
		}
	}
	want := []string{"parse", "lower", "exec", "specialize"}
	if len(order) != len(want) {
		t.Fatalf("phases = %v, want %v", order, want)
	}
	for i, p := range want {
		if order[i] != p {
			t.Fatalf("phase order = %v, want %v", order, want)
		}
	}

	if n := col.Count(obs.EvHeapFlush); n == 0 {
		t.Error("expected at least one heap-flush event")
	}
	for _, e := range col.Events() {
		if e.Kind == obs.EvHeapFlush && e.Phase == "" {
			t.Errorf("heap flush without a reason: %+v", e)
		}
	}
	if cf := col.Count(obs.EvCFEnter); cf == 0 || cf != col.Count(obs.EvCFExit) {
		t.Errorf("counterfactual events unbalanced or absent: enter=%d exit=%d",
			cf, col.Count(obs.EvCFExit))
	}
	if col.Count(obs.EvFactRecord) == 0 {
		t.Error("expected fact-record events")
	}
}

// TestObsChromeThroughPipeline feeds the full pipeline into the Chrome
// trace_event sink and validates the finalized JSON.
func TestObsChromeThroughPipeline(t *testing.T) {
	ct := obs.NewChromeTrace()
	if _, err := determinacy.Analyze(fig2Bench, determinacy.Options{
		Seed: 2, MuJSLocals: true, Out: io.Discard, Tracer: ct,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON: %.200s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	sawFlush := false
	for _, rec := range doc.TraceEvents {
		if _, ok := rec["ph"]; !ok {
			t.Fatalf("record without ph: %v", rec)
		}
		if _, ok := rec["ts"]; !ok {
			t.Fatalf("record without ts: %v", rec)
		}
		if name, _ := rec["name"].(string); strings.HasPrefix(name, "flush:") {
			sawFlush = true
		}
	}
	if !sawFlush {
		t.Error("no flush instant in the chrome trace")
	}
}

// TestObsMetricsExport checks Result.ExportMetrics publishes the aggregate
// counters and that the dump is deterministic.
func TestObsMetricsExport(t *testing.T) {
	res, err := determinacy.Analyze(fig2Bench, determinacy.Options{
		Seed: 2, MuJSLocals: true, Out: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		m := determinacy.NewMetrics()
		res.ExportMetrics(m)
		var b bytes.Buffer
		if err := m.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	d1, d2 := dump(), dump()
	if d1 != d2 {
		t.Fatalf("metrics dump not deterministic:\n%s\n---\n%s", d1, d2)
	}
	for _, want := range []string{
		"analysis_steps_total",
		"analysis_heap_flushes_total",
		"analysis_counterfactuals_total",
		"facts_total",
		"facts_determinate_total",
	} {
		if !strings.Contains(d1, want) {
			t.Errorf("metrics dump missing %s:\n%s", want, d1)
		}
	}
}

// markTally counts the post-branch-mark taint events of a run and sums
// their N1 (the number of journal records each ÎF1 marking pass walks).
type markTally struct{ n, sum int64 }

func (m *markTally) Event(e obs.Event) {
	if e.Kind == obs.EvTaint && e.Phase == "post-branch-mark" {
		m.n++
		m.sum += e.N1
	}
}

// TestPostBranchMarkTraceContract pins the post-branch-mark events of the
// Table 1 jQuery 1.2 spec configuration (DOM, 8 handlers, the paper's
// 1000-flush cap). Every ÎF1 frame that wrote something reports one event
// when it is marked, with N1 the number of journal records marked. An
// indeterminate loop has one frame however many iterations run in it, so
// its writes are marked once, at the loop exit.
func TestPostBranchMarkTraceContract(t *testing.T) {
	var tally markTally
	_, err := determinacy.Analyze(workload.JQuery(workload.JQ12), determinacy.Options{
		WithDOM: true, RunHandlers: 8, MaxFlushes: 1000, Out: io.Discard, Tracer: &tally,
	})
	if err != nil && !errors.Is(err, determinacy.ErrFlushLimit) {
		t.Fatal(err)
	}
	const wantN, wantSum = 1002, 18997
	if tally.n != wantN || tally.sum != wantSum {
		t.Errorf("post-branch-mark events = %d, N1 sum = %d; want %d, %d", tally.n, tally.sum, wantN, wantSum)
	}
}
