// Package cliexit is the canonical exit-code table for the command-line
// tools and the one place a fatal error becomes an exit code (Code, Fatal).
// Every CLI maps its outcomes through these constants, the README's
// "Exit codes" section embeds MarkdownTable() verbatim, and a test in
// internal/clitest asserts the two never drift apart: per-command codes
// stay distinct and the docs match this source of truth.
package cliexit

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"determinacy"
)

// Shared outcome codes. 0-2 mean the same thing in every command; 3-7 are
// analysis outcomes used by the tools that run analyses.
const (
	OK    = 0 // success
	Error = 1 // generic failure (I/O, parse, internal)
	Usage = 2 // bad flags or arguments

	FlushCap  = 3 // analysis stopped at the heap-flush cap; facts are sound
	Budget    = 4 // instrumented execution exhausted its step budget
	Stack     = 5 // instrumented call-stack overflow
	Exception = 6 // analyzed program threw an uncaught exception
	Partial   = 7 // stopped by -timeout/cancellation; partial output is sound

	// Violation is detfuzz's "oracle violation found". It reuses the
	// numeric value 3: detfuzz never stops at a flush cap, so the value is
	// unambiguous within that command's table.
	Violation = 3
)

// Row is one documented exit code of one command.
type Row struct {
	Code    int
	Meaning string
}

// Commands lists every CLI in the order the docs present them.
var Commands = []string{"detrun", "detspec", "detbench", "detfuzz", "detserve"}

// Tables is the documented exit-code table per command.
var Tables = map[string][]Row{
	"detrun": {
		{OK, "analysis completed"},
		{Error, "generic error (I/O, parse, internal)"},
		{Usage, "usage error"},
		{FlushCap, "analysis stopped at the heap-flush cap (-max-flushes); facts printed are sound"},
		{Budget, "instrumented execution exhausted its step budget"},
		{Stack, "instrumented call-stack overflow"},
		{Exception, "analyzed program threw an uncaught exception"},
		{Partial, "run stopped by -timeout or cancellation; facts printed are sound"},
	},
	"detspec": {
		{OK, "specialized program emitted"},
		{Error, "generic error (I/O, parse, internal)"},
		{Usage, "usage error"},
		{Stack, "instrumented call-stack overflow"},
		{Exception, "analyzed program threw an uncaught exception"},
		{Partial, "dynamic analysis stopped by -timeout or cancellation; specialized with sound partial facts"},
	},
	"detbench": {
		{OK, "all requested experiment cells completed"},
		{Error, "generic error (I/O, internal)"},
		{Usage, "usage error"},
		{Partial, "-timeout expired; results cover only the cells that completed"},
	},
	"detfuzz": {
		{OK, "campaign clean: no violation survived"},
		{Error, "generic error (report encoding, I/O)"},
		{Usage, "usage error"},
		{Violation, "at least one soundness violation or interpreter divergence found"},
	},
	"detserve": {
		{OK, "clean shutdown, including a graceful SIGTERM/SIGINT drain"},
		{Error, "server error (bind or serve failure)"},
		{Usage, "usage error"},
	},
}

// Code maps a fatal error to its exit code. Flush-cap, budget, deadline
// and cancellation stops are not errors: the library returns them as sealed
// partial results, and each command maps those by its own table.
func Code(err error) int {
	switch {
	case errors.Is(err, determinacy.ErrStack):
		return Stack
	case errors.Is(err, determinacy.ErrUncaughtException):
		return Exception
	default:
		return Error
	}
}

// Fatal reports err on stderr under the command's name and exits with
// Code(err).
func Fatal(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(Code(err))
}

// OpenOut opens path for writing, with "-" meaning stdout, which Close
// leaves open.
func OpenOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return stdout{}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// stdout writes to os.Stdout; its Close is a no-op.
type stdout struct{}

func (stdout) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (stdout) Close() error                { return nil }

// UsageText renders a command's table for its -help output.
func UsageText(cmd string) string {
	var b strings.Builder
	b.WriteString("exit codes:")
	for _, r := range Tables[cmd] {
		fmt.Fprintf(&b, "\n  %d  %s", r.Code, r.Meaning)
	}
	return b.String()
}

// MarkdownTable renders every command's table as the README "Exit codes"
// section body. The README embeds this output verbatim;
// internal/clitest's TestExitCodeTable fails when the two drift, and its
// failure message carries the expected text to paste back in.
func MarkdownTable() string {
	var b strings.Builder
	for i, cmd := range Commands {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "**%s**\n\n", cmd)
		b.WriteString("| code | meaning |\n|-----:|---------|\n")
		for _, r := range Tables[cmd] {
			fmt.Fprintf(&b, "| %d | %s |\n", r.Code, r.Meaning)
		}
	}
	return b.String()
}

// Distinct reports whether a command's documented codes are pairwise
// distinct, returning the first duplicated code otherwise.
func Distinct(cmd string) (int, bool) {
	seen := map[int]bool{}
	rows := append([]Row(nil), Tables[cmd]...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Code < rows[j].Code })
	for _, r := range rows {
		if seen[r.Code] {
			return r.Code, false
		}
		seen[r.Code] = true
	}
	return 0, true
}
