package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"determinacy"
)

// goldenDir holds the golden outputs, recorded at the seed commit with
// `perfbench record` and read relative to the repository root.
const goldenDir = "perfbench/golden"

// golden maps a job key (workload-prefixed) to its expected output digest
// or outcome string.
var golden map[string]string

func loadGolden() (map[string]string, error) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden files under %s (run from the repository root)", goldenDir)
	}
	g := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			k, v, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("%s: malformed line %q", f, line)
			}
			g[k] = v
		}
	}
	return g, nil
}

// writeGolden writes one golden file, sorted by key.
func writeGolden(name, header string, entries map[string]string) error {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(header), "\n") {
		b.WriteString("# " + line + "\n")
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, entries[k])
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, name), []byte(b.String()), 0o644)
}

// digestLen is the number of hex digits kept of a SHA-256 digest.
const digestLen = 16

func shortDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:digestLen]
}

// resultDigest fingerprints everything a library analysis returns: every
// rendered fact, the statistics, the handler count, partiality and the
// console output.
func resultDigest(fs []determinacy.Fact, res *determinacy.Result, output []byte) string {
	var b bytes.Buffer
	for _, f := range fs {
		fmt.Fprintf(&b, "%d:%d|%s|%s|%t|%s\n", f.Line, f.Col, f.Point, f.Context, f.Determinate, f.Value)
	}
	st := res.Stats
	fmt.Fprintf(&b, "steps=%d heap=%d env=%d cf=%d cfab=%d hist=%v handlers=%d partial=%t degraded=%s\n",
		st.Steps, st.HeapFlushes, st.EnvFlushes, st.Counterfacts, st.CFAborts, st.CFDepthHist,
		res.HandlersRan, res.Partial, res.Degraded)
	reasons := make([]string, 0, len(st.FlushReasons))
	for r, n := range st.FlushReasons {
		reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(reasons)
	fmt.Fprintf(&b, "reasons=%s\n", strings.Join(reasons, ","))
	b.Write(output)
	return shortDigest(b.Bytes())
}

// responseDigest fingerprints a /v1/analyze response body up to its
// elapsed_ms field, the one part that legitimately varies.
func responseDigest(body []byte) (string, bool) {
	i := bytes.LastIndex(body, []byte(`,"elapsed_ms":`))
	if i < 0 {
		return "", false
	}
	return shortDigest(body[:i]), true
}

// recordGolden recomputes every golden file through the plainest library
// path (no caches, one request at a time).
func recordGolden() error {
	paper, err := recordPaperGolden()
	if err != nil {
		return err
	}
	if err := writeGolden("paper.txt", "Per-benchmark eval-study outcomes from internal/experiment at the seed commit.\nkey: paper/<mode>/<benchmark>; value: runnable,handled,reason,syntactic", paper); err != nil {
		return err
	}
	serve, err := recordServeGolden()
	if err != nil {
		return err
	}
	if err := writeGolden("serve.txt", "Digest of each /v1/analyze response body up to elapsed_ms, served one at a time.\nkey: serve/<input>", serve); err != nil {
		return err
	}
	resub, err := recordResubmitGolden()
	if err != nil {
		return err
	}
	return writeGolden("resubmit.txt", "Digest of facts, stats and output of each program and its one-function edit, analyzed without caches.\nkey: resubmit/<program>[/edit]", resub)
}
