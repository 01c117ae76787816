package clitest

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// positional is the number of non-flag arguments each analysis CLI accepts.
var positional = map[string]int{"detrun": 1, "detspec": 1, "detbench": 0, "detfuzz": 0}

// helpFlagLine matches a flag line of flag.PrintDefaults: "  -name", or
// "  -name type" for a flag that takes a value.
var helpFlagLine = regexp.MustCompile(`^  -([^\s=]+)(?: (\S+))?$`)

// helpFlags runs bin -help and returns its flags, each mapped to whether it
// takes a value.
func helpFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin, "-help")
	cmd.Stdout, cmd.Stderr = &out, &out
	_ = cmd.Run() // -help exits 0 or 2 depending on Go version; the text is what matters
	flags := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		line, _, _ = strings.Cut(line, "\t")
		if m := helpFlagLine.FindStringSubmatch(line); m != nil {
			flags[m[1]] = m[2] != ""
		}
	}
	if len(flags) == 0 {
		t.Fatalf("%s -help lists no flags:\n%s", bin, out.String())
	}
	return flags
}

// docCommand is one documented command line.
type docCommand struct {
	where string // file:line
	name  string // detrun, detspec, detbench or detfuzz
	args  []string
}

// shellSeparator splits a pipeline or command list into its commands.
var shellSeparator = regexp.MustCompile(`\|\||&&|[|;]`)

// redirection matches a redirection word (">f", "2>>f", "2>&1", "< f");
// its group is the target when the word carries one.
var redirection = regexp.MustCompile(`^(?:\d*|&)(?:>>?|<)(.*)$`)

// shellInfo lists the fence info strings of shell code blocks.
var shellInfo = map[string]bool{"": true, "sh": true, "bash": true, "shell": true}

// documentedCommands extracts every invocation of an analysis CLI from the
// shell code blocks of a Markdown file. Comments, redirections and the
// `go run ./cmd/` prefix are stripped; a pipeline or command list is split
// into its commands.
func documentedCommands(t *testing.T, path string) []docCommand {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []docCommand
	inShell, inBlock := false, false
	var pending string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if fence, ok := strings.CutPrefix(strings.TrimSpace(line), "```"); ok {
			inBlock = !inBlock
			inShell = inBlock && shellInfo[strings.TrimSpace(fence)]
			continue
		}
		if !inShell {
			continue
		}
		if i := commentStart(line); i >= 0 {
			line = line[:i]
		}
		if cont, ok := strings.CutSuffix(strings.TrimRight(line, " "), `\`); ok {
			pending += cont + " "
			continue
		}
		line, pending = pending+line, ""
		for _, seg := range shellSeparator.Split(line, -1) {
			if c, ok := parseCommand(strings.Fields(seg)); ok {
				c.where = fmt.Sprintf("%s:%d", filepath.Base(path), n)
				cmds = append(cmds, c)
			}
		}
	}
	return cmds
}

// commentStart returns the index of a shell comment's '#' in line, or -1.
func commentStart(line string) int {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
			return i
		}
	}
	return -1
}

// parseCommand recognizes an analysis CLI invocation in a command's words
// and returns its arguments with redirections removed.
func parseCommand(words []string) (docCommand, bool) {
	for len(words) > 0 && strings.Contains(words[0], "=") && !strings.HasPrefix(words[0], "-") {
		words = words[1:] // VAR=value prefixes
	}
	if len(words) >= 3 && words[0] == "go" && words[1] == "run" {
		words = words[2:]
	}
	if len(words) == 0 {
		return docCommand{}, false
	}
	name := filepath.Base(words[0])
	if _, ok := positional[name]; !ok {
		return docCommand{}, false
	}
	var args []string
	for i := 1; i < len(words); i++ {
		switch m := redirection.FindStringSubmatch(words[i]); {
		case m != nil && m[1] == "":
			i++ // the redirection's target is the next word
		case m != nil || words[i] == "&":
		default:
			args = append(args, words[i])
		}
	}
	return docCommand{name: name, args: args}, true
}

// TestDocumentedInvocationsParse checks every detrun, detspec, detbench and
// detfuzz command line in the shell blocks of README.md and EXPERIMENTS.md
// against the binary it names: each flag must be one that -help lists, a
// valued flag must have its value, and the command must pass exactly the
// positional arguments the binary accepts (flag parsing stops at the first
// one, so a value given to a bool flag turns into a stray argument).
func TestDocumentedInvocationsParse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	flags := map[string]map[string]bool{}
	for name := range positional {
		flags[name] = helpFlags(t, build(t, dir, name))
	}
	seen := map[string]int{}
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		for _, c := range documentedCommands(t, doc) {
			seen[c.name]++
			known := flags[c.name]
			var pos []string
			for i := 0; i < len(c.args); i++ {
				a := c.args[i]
				if a == "--" {
					pos = append(pos, c.args[i+1:]...)
					break
				}
				if len(a) < 2 || a[0] != '-' {
					pos = append(pos, c.args[i:]...) // the flag package stops here
					break
				}
				fname, _, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
				valued, ok := known[fname]
				if !ok {
					t.Errorf("%s: %s %s: %s -help lists no flag -%s", c.where, c.name, strings.Join(c.args, " "), c.name, fname)
					continue
				}
				if valued && !hasValue {
					if i+1 == len(c.args) {
						t.Errorf("%s: %s %s: -%s needs a value", c.where, c.name, strings.Join(c.args, " "), fname)
					}
					i++
				}
			}
			if want := positional[c.name]; len(pos) != want {
				t.Errorf("%s: %s %s: %d positional arguments %q, %s accepts %d",
					c.where, c.name, strings.Join(c.args, " "), len(pos), pos, c.name, want)
			}
		}
	}
	for name := range positional {
		if seen[name] == 0 {
			t.Errorf("no documented %s command line found", name)
		}
	}
}
