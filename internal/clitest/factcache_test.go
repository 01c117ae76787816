package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDetrunRunsSharesFactCache pins that a multi-seed detrun keys the fact
// cache by the file it was given: after a single run of figure2.js stores
// its seed-0 record, `-runs 2` over the same file serves seed 0 from the
// cache and analyzes seed 1 afresh.
func TestDetrunRunsSharesFactCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	detrun := build(t, dir, "detrun")
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "factdb")
	trace := filepath.Join(dir, "runs.jsonl")
	for _, args := range [][]string{
		{"-factcache", db, "examples/js/figure2.js"},
		{"-runs", "2", "-factcache", db, "-trace", trace, "examples/js/figure2.js"},
	} {
		cmd := exec.Command(detrun, args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("detrun %v: %v\n%s", args, err, out)
		}
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.Contains(line, `"phase":"factcache"`) {
			continue
		}
		switch {
		case strings.Contains(line, `"detail":"hit"`):
			hits++
		case strings.Contains(line, `"detail":"miss"`):
			misses++
		}
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("-runs 2 after a single run: %d fact-cache hits and %d misses, want 1 and 1", hits, misses)
	}
}

// TestDetrunMetricsPublishFactCache pins that `detrun -metrics` carries the
// fact cache's series: a cold run reports one miss and a warm rerun one hit.
func TestDetrunMetricsPublishFactCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	detrun := build(t, dir, "detrun")
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "factdb")
	for _, want := range []string{"factcache_misses_total 1", "factcache_hits_total 1"} {
		cmd := exec.Command(detrun, "-factcache", db, "-metrics", "-", "examples/js/figure2.js")
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("detrun -factcache -metrics: %v", err)
		}
		var got []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "factcache_hits_total") || strings.HasPrefix(line, "factcache_misses_total") {
				got = append(got, line)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("fact-cache lookup series = %q, want [%q]", got, want)
		}
	}
}
