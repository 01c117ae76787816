package determinacy_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"determinacy"
	"determinacy/internal/ir"
	"determinacy/internal/workload"
)

// wireCase is one analysed program of the wire corpus.
type wireCase struct {
	section, name string
	res           *determinacy.Result
}

// wireCorpus analyses the programs whose rendered output the wire tests
// pin: testdata/render_edge.js and examples/js/* (seed 1), the §5.2 eval
// corpus and the four Table 1 jQuery versions with the DOM and 8
// handlers, and 200 programs from perfbench serve's generator config
// (seeds 700000+).
func wireCorpus(t *testing.T) []wireCase {
	t.Helper()
	var cs []wireCase
	add := func(section, name, src string, opts determinacy.Options) {
		opts.Out = io.Discard
		res, err := determinacy.Analyze(src, opts)
		if errors.Is(err, determinacy.ErrUncaughtException) {
			return // no result to render; missing-lib-* throw by design
		}
		if err != nil {
			t.Fatalf("%s %s: %v", section, name, err)
		}
		cs = append(cs, wireCase{section, name, res})
	}
	files, err := filepath.Glob(filepath.Join("examples", "js", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{filepath.Join("testdata", "render_edge.js")}, files...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add("files", path, string(src), determinacy.Options{Seed: 1})
	}
	paper := determinacy.Options{WithDOM: true, RunHandlers: 8, MaxFlushes: 1000}
	for _, bm := range workload.EvalCorpus() {
		add("eval", bm.Name, bm.Source, paper)
	}
	for _, v := range workload.JQueryVersions {
		add("jquery", string(v), workload.JQuery(v), paper)
	}
	for i := range 200 {
		src := workload.RandomProgram(workload.GenConfig{
			Seed: 700_000 + uint64(i), MaxStmts: 40, WithProto: true, WithEval: true, WithForIn: true,
		})
		add("generated", fmt.Sprint(i), src, determinacy.Options{Seed: uint64(i), MaxFlushes: 1000})
	}
	return cs
}

// TestInstrLabelsGolden pins ir.InstrString over every instruction of the
// wire corpus, including the instructions lowered from eval during each
// run, as one sha256 per corpus section. A rewrite of the label printer
// that claims the same text must leave testdata/instr_labels.golden as it
// is.
func TestInstrLabelsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jQuery, eval and generated corpora")
	}
	var b strings.Builder
	var section string
	h := sha256.New()
	flush := func() {
		if section != "" {
			fmt.Fprintf(&b, "%s %x\n", section, h.Sum(nil))
		}
		h.Reset()
	}
	for _, c := range wireCorpus(t) {
		if c.section != section {
			flush()
			section = c.section
		}
		mod := c.res.Module()
		fmt.Fprintf(h, "== %s\n", c.name)
		for id := range mod.NumInstrs {
			if in := mod.InstrAt(ir.ID(id)); in != nil {
				fmt.Fprintf(h, "%d %s\n", id, ir.InstrString(in))
			}
		}
	}
	flush()
	checkGolden(t, "instr_labels.golden", []byte(b.String()))
}

// TestAppendFactsJSON requires Result.AppendFactsJSON to write exactly
// the bytes json.Marshal writes for Facts() and DeterminateFacts() over
// the wire corpus ([] where they are nil): the server's /v1/analyze
// writer depends on it.
func TestAppendFactsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jQuery, eval and generated corpora")
	}
	n := 0
	for _, c := range wireCorpus(t) {
		for _, detOnly := range []bool{false, true} {
			fs := c.res.Facts()
			if detOnly {
				fs = c.res.DeterminateFacts()
			}
			if fs == nil {
				fs = []determinacy.Fact{}
			}
			want, err := json.Marshal(fs)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.res.AppendFactsJSON([]byte("x"), detOnly); !bytes.Equal(got[1:], want) {
				t.Errorf("%s %s detOnly=%v: AppendFactsJSON differs from json.Marshal:\n got %.300s\nwant %.300s",
					c.section, c.name, detOnly, got[1:], want)
			}
			n += len(fs)
		}
	}
	t.Logf("%d facts compared", n)
}
