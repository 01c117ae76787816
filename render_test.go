package determinacy_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/facts"
)

// TestRenderEdgeGolden pins every rendered form of the facts of
// testdata/render_edge.js byte for byte: the JSON the server sends
// (json.Marshal of Result.Facts), the detrun lines (Fact.String) and the
// store's [[ … ]] form (facts.Render). The program reaches the corners of
// value and context rendering: NaN, ±Infinity, −0, 1e21 and 1e-7; a string
// with quotes, backslashes, a newline, HTML-sensitive characters, U+2028
// and non-ASCII text; native functions, closures and objects; code
// lowered from eval; looped call sites and loops inside callees
// ("(occ N)"), nested contexts ("→"); and facts made indeterminate by
// Math.random.
//
// A golden changes only with an intended change of output. To re-record
// one, delete it and run this test: it writes the missing file and fails,
// so a re-recording never passes silently.
func TestRenderEdgeGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "render_edge.js"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := determinacy.Analyze(string(src), determinacy.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Facts()
	js, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	for _, f := range fs {
		lines.WriteString(f.String())
		lines.WriteByte('\n')
	}
	checkGolden(t, "render_edge.facts.json", append(js, '\n'))
	checkGolden(t, "render_edge.facts.txt", []byte(lines.String()))
	checkGolden(t, "render_edge.render.txt", []byte(facts.Render(res.Module(), res.Store().Sorted())))
}

// TestFactsEmptyStore checks that a run that records no fact renders as
// nil from every accessor (the server turns nil into []).
func TestFactsEmptyStore(t *testing.T) {
	res, err := determinacy.Analyze("var x;", determinacy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFacts() != 0 {
		t.Fatalf("var x; recorded %d facts, want 0", res.NumFacts())
	}
	if res.Facts() != nil || res.DeterminateFacts() != nil || res.FactsAtLine(1) != nil {
		t.Error("an empty store must render as nil")
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded missing golden %s; check it in and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs: got %d lines, want %d", path, len(gl), len(wl))
}

// TestFactsAllocs is the deterministic proxy for the cost of rendering:
// Result.Facts on examples/js/counter.js at seed 1 (3,405 facts) may make
// at most three allocations per fact. Each point's label and each
// distinct context is built once per call, so what remains per fact is
// its value string and the amortized share of the rest.
func TestFactsAllocs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "js", "counter.js"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := determinacy.Analyze(string(src), determinacy.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := res.NumFacts()
	if n != 3405 {
		t.Fatalf("counter.js at seed 1 has %d facts, want 3405", n)
	}
	perFact := testing.AllocsPerRun(5, func() { res.Facts() }) / float64(n)
	t.Logf("%.2f allocations per fact", perFact)
	if perFact > 3 {
		t.Errorf("Result.Facts makes %.2f allocations per fact, want at most 3", perFact)
	}
}
