package main

import (
	"strings"
	"testing"
)

// TestJudgeNeedsTenPairs checks that the pairs rule grants no gain on fewer
// than ten pairs, however clearly the change wins them.
func TestJudgeNeedsTenPairs(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.05}
	change := []float64{5, 5.1, 4.9, 5.05, 4.95, 5, 5.1, 4.9, 5.05}
	if v := judge(parent, change, false, 0.1); v.verdict == "improved" {
		t.Errorf("%d pairs: verdict %q", v.pairs, v.verdict)
	}
	if v := judge(append(parent, 10), append(change, 5), false, 0.1); v.verdict != "improved" {
		t.Errorf("%d pairs: verdict %q, want improved", v.pairs, v.verdict)
	}
	if v := judge(append(parent, 10), append(parent, 10.2), true, 0.1); v.verdict != "within bound" {
		t.Errorf("same runs: verdict %q, want within bound", v.verdict)
	}
	wide := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	if v := judge(wide, []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 30}, false, 0.1); v.verdict != "unresolved" {
		t.Errorf("spread over bound: verdict %q, want unresolved", v.verdict)
	}
	if v := judge(wide, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, false, 0.1); v.verdict != "improved" {
		t.Errorf("every change run better: verdict %q, want improved", v.verdict)
	}
}

// TestFailuresReportIncorrectChange checks that an incorrect change run and
// a rise in failed jobs fail the comparison, and that equal failures do not.
func TestFailuresReportIncorrectChange(t *testing.T) {
	ok := record{Workload: "serve", Correct: true, Attempted: 100}
	bad := record{Workload: "serve", Correct: false, Attempted: 100, Failed: 2}
	if msgs := failures([]record{ok}, []record{ok}); len(msgs) != 0 {
		t.Errorf("clean runs: %v", msgs)
	}
	msgs := failures([]record{ok}, []record{bad})
	if len(msgs) != 2 || !strings.Contains(msgs[0], "incorrect") || !strings.Contains(msgs[1], "failed 2 jobs, parent 0") {
		t.Errorf("failing change: %v", msgs)
	}
	incorrect := record{Workload: "serve", Correct: false, Attempted: 100}
	if msgs := failures([]record{incorrect}, []record{incorrect}); len(msgs) != 1 {
		t.Errorf("incorrect change run: %v", msgs)
	}
}

// TestLateRunsFlagLateGenerator checks that only a run whose generator p99
// lateness exceeds the send interval marks its workload.
func TestLateRunsFlagLateGenerator(t *testing.T) {
	onTime := record{Workload: "serve", Metrics: map[string]float64{"loadgen.late_ms_p99": sendIntervalMS / 2}}
	late := record{Workload: "serve", Seed: 3, Metrics: map[string]float64{"loadgen.late_ms_p99": sendIntervalMS + 1}}
	paper := record{Workload: "paper", Metrics: map[string]float64{"jobs_per_s": 30}}
	if got, msgs := lateRuns([]record{onTime, paper}); len(got) != 0 || len(msgs) != 0 {
		t.Errorf("on-time runs flagged: %v %v", got, msgs)
	}
	got, msgs := lateRuns([]record{onTime, late, paper})
	if !got["serve"] || got["paper"] || len(msgs) != 1 || !strings.Contains(msgs[0], "seed 3") {
		t.Errorf("late run: %v %v", got, msgs)
	}
}
