package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDetrunGoldenOutput runs detrun over every example program, and
// detbench over the paper's experiments, and compares each standard output
// byte for byte against the checked-in goldens in testdata/. eval.js covers
// code lowered from eval at run time: its -json golden pins the instruction
// IDs of that code. detbench.all.golden pins every Table 1 cell, the
// propagation counts behind them and the §5.2 study. Regenerate a golden
// only for an intended change of output, with
//
//	go run ./cmd/detrun -seed 1 examples/js/eval.js > internal/clitest/testdata/eval.seed1.golden
//	go run ./cmd/detbench -all > internal/clitest/testdata/detbench.all.golden
//
// run from the repository root.
func TestDetrunGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{"detrun": build(t, dir, "detrun"), "detbench": build(t, dir, "detbench")}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := filepath.Glob(filepath.Join(root, "examples", "js", "*.js"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	type run struct {
		golden, cmd string
		args        []string
	}
	var runs []run
	for _, p := range progs {
		name := strings.TrimSuffix(filepath.Base(p), ".js")
		rel := "examples/js/" + filepath.Base(p)
		runs = append(runs,
			run{name + ".seed1.golden", "detrun", []string{"-seed", "1", rel}},
			run{name + ".seed2.golden", "detrun", []string{"-seed", "2", rel}})
	}
	runs = append(runs,
		run{"eval.runs3.golden", "detrun", []string{"-runs", "3", "examples/js/eval.js"}},
		run{"eval.seed1.json.golden", "detrun", []string{"-seed", "1", "-json", "examples/js/eval.js"}},
		run{"detbench.all.golden", "detbench", []string{"-all"}})

	for _, r := range runs {
		want, err := os.ReadFile(filepath.Join("testdata", r.golden))
		if err != nil {
			t.Errorf("%s: %v", r.golden, err)
			continue
		}
		cmd := exec.Command(bins[r.cmd], r.args...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s %v: %v\n%s", r.cmd, r.args, err, stderr.String())
			continue
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s %v: output differs from testdata/%s", r.cmd, r.args, r.golden)
		}
	}
}
