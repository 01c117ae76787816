// Package clitest builds the command-line binaries and exercises their flag
// validation: nonsensical numeric flags and unknown flags must produce a
// usage error (exit code 2) and a diagnostic on stderr, not a hang, panic,
// or silent clamp.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles a command into dir and returns the binary path.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "determinacy/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestRejectNonsensicalFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	js := filepath.Join(dir, "prog.js")
	if err := os.WriteFile(js, []byte("var x = 1 + 2;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	facts := filepath.Join(dir, "prog.facts")

	cases := []struct {
		cmd  string
		args []string
	}{
		{"detrun", []string{"-runs", "0", js}},
		{"detrun", []string{"-runs", "-3", js}},
		{"detrun", []string{"-max-flushes", "-1", js}},
		{"detspec", []string{"-runs", "0", js}},
		{"detbench", []string{"-table1", "-workers", "-1"}},
		// A positional argument stops flag parsing: the -workers after it
		// would otherwise be silently ignored.
		{"detbench", []string{"-table1", "stray", "-workers", "-1"}},
		{"detfuzz", []string{"-seeds", "0"}},
		{"detfuzz", []string{"-resolutions", "0"}},
		{"detrun", []string{"-timeout", "-1s", js}},
		{"detspec", []string{"-timeout", "-1s", js}},
		{"detbench", []string{"-table1", "-timeout", "-1s"}},
		{"detfuzz", []string{"-timeout", "-1s"}},
		// There is one execution engine, so -engine is an unknown flag.
		{"detrun", []string{"-engine", "tree", js}},
		{"detspec", []string{"-engine", "tree", js}},
		{"detbench", []string{"-table1", "-engine", "tree"}},
		{"detfuzz", []string{"-engine", "tree"}},
		{"detserve", []string{"-engine", "tree"}},
		// Settings the paper's configuration fixes are constants, so these
		// flags are unknown: 8 handlers, the specializer's default bounds,
		// a 60,000-propagation budget and seed 0 for the experiments, and a
		// GOMAXPROCS-wide, always-reducing fuzz campaign from seed 1.
		{"detrun", []string{"-handlers", "8", js}},
		{"detrun", []string{"-det-only", js}},
		{"detrun", []string{"-dump-ir", js}},
		{"detspec", []string{"-workers", "2", js}},
		{"detspec", []string{"-max-unroll", "32", js}},
		{"detspec", []string{"-clone-depth", "4", js}},
		{"detbench", []string{"-table1", "-budget", "60000"}},
		{"detbench", []string{"-table1", "-seed", "0"}},
		{"detfuzz", []string{"-workers", "2"}},
		{"detfuzz", []string{"-no-reduce"}},
		{"detfuzz", []string{"-base", "1"}},
		// -facts skips the dynamic analysis, so the flags that only shape
		// that analysis are usage errors naming each of them, not silently
		// ignored.
		{"detspec", []string{"-facts", facts, "-seed", "9", js}},
		{"detspec", []string{"-facts", facts, "-dom", js}},
		{"detspec", []string{"-facts", facts, "-detdom", js}},
		{"detspec", []string{"-facts", facts, "-runs", "5", js}},
		{"detspec", []string{"-facts", facts, "-timeout", "1ns", js}},
		{"detspec", []string{"-facts", facts, "-factcache", filepath.Join(dir, "factdb"), js}},
		{"detspec", []string{"-facts", facts, "-timeout", "1ns", "-runs", "5", "-detdom", "-seed", "9", js}},
	}

	bins := map[string]string{}
	for _, c := range cases {
		if _, ok := bins[c.cmd]; !ok {
			bins[c.cmd] = build(t, dir, c.cmd)
		}
	}
	dump, err := exec.Command(bins["detrun"], "-json", js).Output()
	if err != nil {
		t.Fatalf("detrun -json: %v", err)
	}
	if err := os.WriteFile(facts, dump, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range cases {
		cmd := exec.Command(bins[c.cmd], c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Errorf("%s %v: expected a usage failure, got %v", c.cmd, c.args, err)
			continue
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%s %v: exit code %d, want 2\nstderr: %s", c.cmd, c.args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%s %v: no diagnostic on stderr", c.cmd, c.args)
		}
		if c.args[0] == "-facts" {
			for _, a := range c.args[2:] {
				if strings.HasPrefix(a, "-") && !strings.Contains(stderr.String(), a) {
					t.Errorf("%s %v: diagnostic does not name %s: %s", c.cmd, c.args, a, stderr.String())
				}
			}
		}
	}

	// Sane flags must still work end to end.
	good := exec.Command(bins["detrun"], "-runs", "2", js)
	if out, err := good.CombinedOutput(); err != nil {
		t.Errorf("detrun with valid flags failed: %v\n%s", err, out)
	}
	if out, err := exec.Command(bins["detspec"], "-facts", facts, "-eval", js).CombinedOutput(); err != nil {
		t.Errorf("detspec -facts with flags it honours failed: %v\n%s", err, out)
	}

	// A timeout expiring mid-analysis degrades gracefully: exit code 7,
	// a partial-result note on stderr, and no panic output.
	long := filepath.Join(dir, "long.js")
	src := "var acc = 0;\nvar i = 0;\nwhile (i < 200000) { acc = acc + i; i = i + 1; }\n"
	if err := os.WriteFile(long, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	slow := exec.Command(bins["detrun"], "-timeout", "30ms", long)
	var stderr bytes.Buffer
	slow.Stderr = &stderr
	err = slow.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("detrun -timeout on a long program: expected exit 7, got %v\nstderr: %s", err, stderr.String())
	}
	if code := ee.ExitCode(); code != 7 {
		t.Errorf("detrun -timeout exit code = %d, want 7\nstderr: %s", code, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("partial")) {
		t.Errorf("no partial-result note on stderr: %s", stderr.String())
	}
	if bytes.Contains(stderr.Bytes(), []byte("goroutine")) {
		t.Errorf("stderr looks like a panic dump: %s", stderr.String())
	}
}
