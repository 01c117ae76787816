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

// TestDetserveSchedulerFlagValidation pins the serving CLI's admission
// flags to the exit-code contract: the removed -scheduler, -cache,
// -breaker and -trace-events flags, malformed
// or missing -tenants or -peers config (trailing data included), and a
// negative -stream-heartbeat are usage errors
// (exit 2 with a diagnostic on stderr), never a listener that starts with
// a half-applied config.
func TestDetserveSchedulerFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := build(t, dir, "detserve")

	cases := [][]string{
		{"-scheduler", "fifo"}, // one scheduler: the flag is gone
		{"-scheduler", "wfq"},
		// Fixed server settings: compile-cache size, breaker threshold and
		// per-request trace-event cap are constants, not flags.
		{"-cache", "4"},
		{"-breaker", "2"},
		{"-trace-events", "8"},
		{"-tenants", `{not json`},
		{"-tenants", `{"pro":{"weight":-1}}`},
		{"-tenants", `{"pro":{"weight":1,"tier":"x"}}`}, // unknown field
		{"-tenants", `{"bulk":{"class":"batch"}}`},      // removed key: now an unknown field
		{"-tenants", `{"pro":{"weight":4}} {"evil":{"weight":-9}}`},
		{"-tenants", "@" + filepath.Join(dir, "no-such-tenants.json")},
		{"-peers", `{"self":"a","peers":{"a":"http://127.0.0.1:1"}} trailing`},
		{"-stream-heartbeat", "-1s"},
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

// TestDetserveSchedulerFlagsAccepted starts detserve with a weighted-fair
// two-tenant config (tenants via @file) and a heartbeat override, then
// drains it with SIGTERM: the flags parse, the server comes up, and the
// process exits 0 through the graceful-drain path.
func TestDetserveSchedulerFlagsAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := build(t, dir, "detserve")
	tenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"free":{"weight":1},"pro":{"weight":4},"*":{"weight":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Child output goes to a file the child writes directly (no in-process
	// copier goroutine to race with the polling reads below).
	logPath := filepath.Join(dir, "detserve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-tenants", "@"+tenants,
		"-stream-heartbeat", "5s",
		"-drain", "2s")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the listening log line, then ask for a graceful drain.
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
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("detserve with a tenant config exited non-zero: %v\noutput:\n%s", err, output())
	}
}
