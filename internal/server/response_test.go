package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"determinacy"
	"determinacy/internal/cluster"
	"determinacy/internal/workload"
)

// readExample reads one of the repository's examples/js programs.
func readExample(t testing.TB, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "js", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// edgeSrc reaches the corners of JSON string escaping through fact
// values: HTML-sensitive characters, control characters, U+2028/2029,
// DEL, NUL and the replacement character String.fromCharCode(0xd800)
// yields.
const edgeSrc = `
var s = "<a href='x'>&amp;</a>\u2028\u2029\b\f\x7f\x00\t\"\\";
var lone = String.fromCharCode(0xd800);
var both = s + lone + String.fromCharCode(233, 9731);
var o = {k: both};
console.log(o.k.length);
`

// appendAnalyzeResponse appends the whole /v1/analyze body the handler
// writes for resp and res.
func appendAnalyzeResponse(b []byte, resp *AnalyzeResponse, res *determinacy.Result, detOnly bool) []byte {
	return appendElapsed(appendAnalyzeFields(b, resp, res, detOnly), resp.ElapsedMS)
}

// TestAnalyzeBodyMatchesEncoder requires the /v1/analyze writer to
// produce exactly the bytes json.NewEncoder(w).Encode writes for the
// response built with its facts, across full and det_only responses, a
// partial run's degrade_reason, an empty fact list and names that need
// escaping.
func TestAnalyzeBodyMatchesEncoder(t *testing.T) {
	cases := []struct {
		name, src string
		opts      determinacy.Options
	}{
		{"counter.js", readExample(t, "counter.js"), determinacy.Options{Seed: 1}},
		{"figure2.js", readExample(t, "figure2.js"), determinacy.Options{Seed: 2}},
		{"eval.js", readExample(t, "eval.js"), determinacy.Options{Seed: 1}},
		{"<edge>&\u2028\".js", edgeSrc, determinacy.Options{}},
		{"budget.js", slowSrc, determinacy.Options{MaxSteps: 500}},
		{"empty.js", "var x;", determinacy.Options{}},
	}
	for _, c := range cases {
		res, err := determinacy.Analyze(c.src, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.name == "budget.js" && res.Degraded == determinacy.DegradeNone {
			t.Fatalf("budget.js: want a partial run, got %+v", res.Stats)
		}
		for _, detOnly := range []bool{false, true} {
			resp := buildResponse(c.name, detOnly, res)
			resp.ElapsedMS = 17
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			head := responseHead(c.name, res)
			head.ElapsedMS = 17
			if got := appendAnalyzeResponse(nil, head, res, detOnly); !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s detOnly=%v: writer differs from json.Encoder:\n got %.400s\nwant %.400s", c.name, detOnly, got, want.Bytes())
			}
		}
	}
}

// wireFacts is the part of an analysis result the facts tests compare:
// the counts and the facts array as sent.
type wireFacts struct {
	NumFacts       int             `json:"num_facts"`
	NumDeterminate int             `json:"num_determinate"`
	Facts          json.RawMessage `json:"facts"`
}

// checkCount requires a response's facts array to hold num_facts facts,
// or num_determinate under det_only.
func (w wireFacts) checkCount(t *testing.T, what string, detOnly bool) {
	t.Helper()
	var fs []determinacy.Fact
	if err := json.Unmarshal(w.Facts, &fs); err != nil {
		t.Fatalf("%s: facts: %v", what, err)
	}
	want := w.NumFacts
	if detOnly {
		want = w.NumDeterminate
	}
	if len(fs) != want || want == 0 {
		t.Errorf("%s: %d facts, num_facts %d, num_determinate %d", what, len(fs), w.NumFacts, w.NumDeterminate)
	}
}

// TestBatchAndStreamFactsMatchAnalyze requires every /v1/batch entry and
// every streamed result line to carry the same facts array as
// /v1/analyze for the same program, and as many facts as it counts.
func TestBatchAndStreamFactsMatchAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	progs := []BatchProgram{
		{Name: "counter.js", Source: readExample(t, "counter.js"), Seed: 1},
		{Name: "figure2.js", Source: readExample(t, "figure2.js"), Seed: 2},
	}
	for _, detOnly := range []bool{false, true} {
		var batch struct {
			Results []struct {
				Name   string    `json:"name"`
				Result wireFacts `json:"result"`
			} `json:"results"`
		}
		resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Programs: progs, DetOnly: detOnly})
		err := json.NewDecoder(resp.Body).Decode(&batch)
		resp.Body.Close()
		if err != nil || len(batch.Results) != len(progs) {
			t.Fatalf("batch: %v, %d results", err, len(batch.Results))
		}
		for i, p := range progs {
			req := AnalyzeRequest{Name: p.Name, Source: p.Source, Seed: p.Seed, DetOnly: detOnly}
			var analyze wireFacts
			resp := postJSON(t, ts.URL+"/v1/analyze", req)
			err := json.NewDecoder(resp.Body).Decode(&analyze)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("analyze %s: %v", p.Name, err)
			}
			recs := streamLines(t, ts.URL+"/v1/analyze?stream=1", req)
			last, _ := json.Marshal(recs[len(recs)-1]["result"])
			var stream wireFacts
			if err := json.Unmarshal(last, &stream); err != nil {
				t.Fatalf("stream %s: %v", p.Name, err)
			}
			what := fmt.Sprintf("%s det_only=%v", p.Name, detOnly)
			analyze.checkCount(t, "analyze "+what, detOnly)
			batch.Results[i].Result.checkCount(t, "batch "+what, detOnly)
			stream.checkCount(t, "stream "+what, detOnly)
			if !bytes.Equal(batch.Results[i].Result.Facts, analyze.Facts) {
				t.Errorf("batch %s: facts differ from /v1/analyze", what)
			}
			if !jsonEqual(t, stream.Facts, analyze.Facts) {
				t.Errorf("stream %s: facts differ from /v1/analyze", what)
			}
		}
	}
}

// jsonEqual compares two JSON documents by value: the stream helper
// re-marshals its lines from generic maps, which reorders keys.
func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	ra, _ := json.Marshal(va)
	rb, _ := json.Marshal(vb)
	return bytes.Equal(ra, rb)
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+}\n$`)

// TestClusterRelayedBodyMatchesLocal requires a 200 relayed through a
// non-owner to be byte-equal, up to elapsed_ms, to the owner's own body
// for the same request.
func TestClusterRelayedBodyMatchesLocal(t *testing.T) {
	nodes := newClusterNodes(t, []string{"a", "b"}, nil, nil)
	a, b := nodes["a"], nodes["b"]
	src := readExample(t, "figure2.js")
	for i := 0; ; i++ {
		salted := fmt.Sprintf("%s// salt %d\n", src, i)
		if b.router.Owner(cluster.HashKey(salted)) == "b" {
			src = salted
			break
		}
	}
	body := func(url string) []byte {
		resp := postJSON(t, url+"/v1/analyze", AnalyzeRequest{Name: "<fig>&2.js", Source: src, Seed: 2})
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v", url, resp.StatusCode, err)
		}
		if !elapsedField.Match(raw) {
			t.Fatalf("body does not end in elapsed_ms: %.200q", raw[max(0, len(raw)-200):])
		}
		return elapsedField.ReplaceAll(raw, []byte(`"elapsed_ms":0}`+"\n"))
	}
	relayed, local := body(a.ts.URL), body(b.ts.URL)
	if v := a.metrics.Counter(`cluster_requests_total{peer="b",outcome="relayed"}`).Value(); v != 1 {
		t.Fatalf("the request through a was not relayed to b (relayed = %d)", v)
	}
	if !bytes.Equal(relayed, local) {
		t.Errorf("relayed body differs from the owner's:\nrelayed %.400s\n  local %.400s", relayed, local)
	}
}

// TestAnalyzeResponseAllocs is the deterministic proxy for the cost of
// writing a /v1/analyze body: examples/js/counter.js at seed 1 (3,405
// facts), appended into a reused buffer as the pooled writer does. Each
// point's label and each distinct context is built once per body and no
// per-fact value string is made: 0.12 allocations per fact, where building
// the []determinacy.Fact and encoding it with encoding/json makes 0.95.
func TestAnalyzeResponseAllocs(t *testing.T) {
	res, err := determinacy.Analyze(readExample(t, "counter.js"), determinacy.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := res.NumFacts()
	if n != 3405 {
		t.Fatalf("counter.js at seed 1 has %d facts, want 3405", n)
	}
	head := responseHead("counter.js", res)
	buf := appendAnalyzeResponse(nil, head, res, false)
	perFact := testing.AllocsPerRun(5, func() { buf = appendAnalyzeResponse(buf[:0], head, res, false) }) / float64(n)
	t.Logf("%.3f allocations per fact", perFact)
	if perFact > 0.2 {
		t.Errorf("writing the body makes %.3f allocations per fact, want at most 0.2", perFact)
	}
}

// BenchmarkAnalyzeResponse times writing /v1/analyze bodies for 50
// programs from perfbench serve's generator config (seeds 700000+),
// analysed before the timer starts: "appender" is the server's writer,
// "encoding-json" builds the []determinacy.Fact and encodes it the way
// /v1/batch does.
func BenchmarkAnalyzeResponse(b *testing.B) {
	var rs []*determinacy.Result
	facts := 0
	for i := range 50 {
		src := workload.RandomProgram(workload.GenConfig{
			Seed: 700_000 + uint64(i), MaxStmts: 40, WithProto: true, WithEval: true, WithForIn: true,
		})
		res, err := determinacy.Analyze(src, determinacy.Options{Seed: uint64(i), MaxFlushes: 1000, Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		rs = append(rs, res)
		facts += res.NumFacts()
	}
	run := func(b *testing.B, write func(*determinacy.Result) int) {
		b.ReportAllocs()
		size := 0
		for i := 0; i < b.N; i++ {
			for _, res := range rs {
				size += write(res)
			}
		}
		b.ReportMetric(float64(facts), "facts/op")
		b.ReportMetric(float64(size)/float64(b.N), "body-bytes/op")
	}
	b.Run("appender", func(b *testing.B) {
		var buf []byte
		run(b, func(res *determinacy.Result) int {
			buf = appendAnalyzeResponse(buf[:0], responseHead("g.js", res), res, false)
			return len(buf)
		})
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		run(b, func(res *determinacy.Result) int {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(buildResponse("g.js", false, res))
			return buf.Len()
		})
	})
}
