package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"determinacy/internal/cliexit"
)

// TestExitCodeTableDistinctAndDocumented checks the canonical table
// itself: every command documents codes 0-2, every code is distinct
// within its command, and every row has a meaning.
func TestExitCodeTableDistinctAndDocumented(t *testing.T) {
	if len(cliexit.Commands) != len(cliexit.Tables) {
		t.Fatalf("Commands lists %d tools, Tables documents %d", len(cliexit.Commands), len(cliexit.Tables))
	}
	for _, cmd := range cliexit.Commands {
		rows, ok := cliexit.Tables[cmd]
		if !ok {
			t.Errorf("%s: listed in Commands but has no table", cmd)
			continue
		}
		if dup, distinct := cliexit.Distinct(cmd); !distinct {
			t.Errorf("%s: exit code %d documented twice", cmd, dup)
		}
		codes := map[int]bool{}
		for _, r := range rows {
			codes[r.Code] = true
			if strings.TrimSpace(r.Meaning) == "" {
				t.Errorf("%s: code %d has no meaning", cmd, r.Code)
			}
			if r.Code < 0 || r.Code > 255 {
				t.Errorf("%s: code %d outside the portable exit-status range", cmd, r.Code)
			}
		}
		for _, want := range []int{cliexit.OK, cliexit.Error, cliexit.Usage} {
			if !codes[want] {
				t.Errorf("%s: shared code %d undocumented", cmd, want)
			}
		}
	}
}

// TestExitCodeTableMatchesReadme pins the README "Exit codes" section to
// MarkdownTable(): the docs embed the rendered table verbatim, so a code
// or meaning change here fails until the README is updated to match.
func TestExitCodeTableMatchesReadme(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	want := cliexit.MarkdownTable()
	if !strings.Contains(string(readme), want) {
		t.Fatalf("README.md does not embed the canonical exit-code table verbatim.\n"+
			"Paste this into the \"Exit codes\" section:\n\n%s", want)
	}
}

// TestVersionFlag builds every CLI and checks -version prints the command
// name plus a build identity (exit 0, no analysis side effects).
func TestVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, name := range cliexit.Commands {
		bin := build(t, dir, name)
		cmd := exec.Command(bin, "-version")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s -version: %v\nstderr: %s", name, err, stderr.String())
			continue
		}
		out := stdout.String()
		if !strings.HasPrefix(out, name+" ") {
			t.Errorf("%s -version output %q, want %q prefix", name, out, name+" ")
		}
		if !strings.Contains(out, "go") {
			t.Errorf("%s -version output %q carries no toolchain identity", name, out)
		}
	}
}

// TestUsageListsExitCodes checks every CLI's -help output carries its
// exit-code table, so `tool -help` and the README never disagree.
func TestUsageListsExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, name := range cliexit.Commands {
		bin := build(t, dir, name)
		cmd := exec.Command(bin, "-help")
		var combined bytes.Buffer
		cmd.Stdout, cmd.Stderr = &combined, &combined
		_ = cmd.Run() // flag's -help exits 0 or 2 depending on Go version; text is what matters
		if !strings.Contains(combined.String(), cliexit.UsageText(name)) {
			t.Errorf("%s -help does not include its exit-code table; got:\n%s", name, combined.String())
		}
	}
}

// TestAnalysisExitCodes runs each documented analysis outcome end to end
// and checks the exit code both analysis CLIs give it: a fatal error maps
// through cliexit.Code in either command, and detrun's flush-cap stop
// reports its own code.
func TestAnalysisExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	throw := write("throw.js", "throw 1;\n")
	recurse := write("recurse.js", "function f(){return f();} f();\n")
	// An indeterminate callee flushes the heap: 3 indet-call flushes and 2
	// indet-store-base ones, so a cap of 1 stops the run.
	flushy := write("flushy.js", `var g = {};
function a(){ g.x = 1; }
function b(){ g.y = 2; }
var f = Math.random() < 0.5 ? a : b;
f(); f(); f();
`)
	cases := []struct {
		cmd  string
		args []string
		want int
	}{
		{"detrun", []string{throw}, cliexit.Exception},
		{"detspec", []string{throw}, cliexit.Exception},
		{"detrun", []string{recurse}, cliexit.Stack},
		{"detspec", []string{recurse}, cliexit.Stack},
		{"detrun", []string{"-max-flushes", "1", flushy}, cliexit.FlushCap},
	}
	bins := map[string]string{}
	for _, c := range cases {
		if _, ok := bins[c.cmd]; !ok {
			bins[c.cmd] = build(t, dir, c.cmd)
		}
	}
	for _, c := range cases {
		cmd := exec.Command(bins[c.cmd], c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v", c.cmd, c.args, err)
		}
		if code != c.want {
			t.Errorf("%s %v: exit code %d, want %d\nstderr: %s", c.cmd, c.args, code, c.want, stderr.String())
		}
		if bytes.Contains(stderr.Bytes(), []byte("goroutine")) {
			t.Errorf("%s %v: stderr looks like a panic dump: %s", c.cmd, c.args, stderr.String())
		}
	}
}
