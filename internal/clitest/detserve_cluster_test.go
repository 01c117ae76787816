package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDetserveClusterFlagValidation pins the fleet flags to the exit-code
// contract: malformed -peers topology (bad JSON, bad URLs, a self that is
// not in the peer map, unknown fields, a missing @file) and a negative
// -drain are usage errors (exit 2 with a diagnostic on stderr),
// never a node that joins a ring it misparsed.
func TestDetserveClusterFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := build(t, dir, "detserve")

	cases := [][]string{
		{"-peers", `{not json`},
		{"-peers", `{"self":"a"}`},                                                // no peers map
		{"-peers", `{"peers":{"a":"http://127.0.0.1:1"}}`},                        // no self
		{"-peers", `{"self":"a","peers":{"b":"http://127.0.0.1:1"}}`},             // self not in peers
		{"-peers", `{"self":"a","peers":{"a":"ftp://127.0.0.1:1"}}`},              // non-http scheme
		{"-peers", `{"self":"a","peers":{"a":"not a url"}}`},                      // unparseable URL
		{"-peers", `{"self":"a","peers":{"bad name!":"http://127.0.0.1:1"}}`},     // hostile peer name
		{"-peers", `{"self":"a","vnodes":-1,"peers":{"a":"http://127.0.0.1:1"}}`}, // negative vnodes
		{"-peers", `{"self":"a","peers":{"a":"http://127.0.0.1:1"},"extra":1}`},   // unknown field
		{"-peers", "@" + filepath.Join(dir, "no-such-peers.json")},
		{"-drain", "-1s"},
	}
	for _, args := range cases {
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Errorf("detserve %v: expected a usage failure, got %v", args, err)
			continue
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("detserve %v: exit code %d, want 2\nstderr: %s", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("detserve %v: no diagnostic on stderr", args)
		}
	}
}

// TestDetserveClusterFlagsAccepted starts detserve as a named cluster
// node (topology via @file, like production) with an explicit
// -drain, then drains it with SIGTERM: the flags parse, the node
// reports its peers, and the process exits 0 through the graceful-drain
// path even though its only peer never existed.
func TestDetserveClusterFlagsAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := build(t, dir, "detserve")
	peers := filepath.Join(dir, "peers.json")
	topo := `{"self":"a","peers":{"a":"http://127.0.0.1:1","b":"http://127.0.0.1:2"}}`
	if err := os.WriteFile(peers, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "detserve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-peers", "@"+peers,
		"-drain", "2s")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	output := func() string {
		b, _ := os.ReadFile(logPath)
		return string(b)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(output(), "listening on") {
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(output(), "listening on") {
		_ = cmd.Process.Kill()
		t.Fatalf("detserve never reported listening; output:\n%s", output())
	}
	if !strings.Contains(output(), `cluster node "a"`) {
		_ = cmd.Process.Kill()
		t.Fatalf("detserve did not report its cluster identity; output:\n%s", output())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("detserve cluster node exited non-zero: %v\noutput:\n%s", err, output())
	}
}
