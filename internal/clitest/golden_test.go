package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDetrunGoldenOutput runs detrun over every example program and
// compares its standard output byte for byte against the checked-in
// goldens in testdata/. eval.js covers code lowered from eval at run time:
// its -json golden pins the instruction IDs of that code. Regenerate a
// golden only for an intended change of output, with
//
//	go run ./cmd/detrun -seed 1 examples/js/eval.js > internal/clitest/testdata/eval.seed1.golden
//
// run from the repository root.
func TestDetrunGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := build(t, t.TempDir(), "detrun")
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := filepath.Glob(filepath.Join(root, "examples", "js", "*.js"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	type run struct {
		golden string
		args   []string
	}
	var runs []run
	for _, p := range progs {
		name := strings.TrimSuffix(filepath.Base(p), ".js")
		rel := "examples/js/" + filepath.Base(p)
		runs = append(runs,
			run{name + ".seed1.golden", []string{"-seed", "1", rel}},
			run{name + ".seed2.golden", []string{"-seed", "2", rel}})
	}
	runs = append(runs,
		run{"eval.runs3.golden", []string{"-runs", "3", "examples/js/eval.js"}},
		run{"eval.seed1.json.golden", []string{"-seed", "1", "-json", "examples/js/eval.js"}})

	for _, r := range runs {
		want, err := os.ReadFile(filepath.Join("testdata", r.golden))
		if err != nil {
			t.Errorf("%s: %v", r.golden, err)
			continue
		}
		cmd := exec.Command(bin, r.args...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("detrun %v: %v\n%s", r.args, err, stderr.String())
			continue
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("detrun %v: output differs from testdata/%s", r.args, r.golden)
		}
	}
}
