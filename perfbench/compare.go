package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Compare mode judges a change against its parent from two files of runs,
// each written by --out (one JSON line per run). Pair the runs: run the
// parent and the change alternately with the same seeds and settings. It
// reads the bounds from BENCHMARK.json in the working directory.
//
//	perfbench compare PARENT.jsonl CHANGE.jsonl
//
// A change run that is not correct, or a workload whose change runs fail
// more jobs than its parent runs, fails the comparison before any metric
// is judged. Every count metric of the traced runs must match exactly
// between runs with the same workload and seed, on either side. Each
// end-to-end metric of each workload is judged by the pairs rule: the
// change improves a metric when there are at least ten pairs, it wins at
// least nine tenths of them and the medians differ by more than the
// parent's interquartile range; it regresses when its median is worse than
// the parent's by more than the metric's bound; the metric is unresolved
// when the parent's own spread exceeds the bound, unless there are at least
// ten pairs and every change run reads better than every parent run. A
// workload with a run whose load generator missed its schedule is left
// unresolved on every metric. Exit status 1 reports an incorrect change
// run, a regression or a count mismatch.

// benchmarkSpec is the part of BENCHMARK.json compare mode reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest pairs on which the pairs rule grants a gain.
const minPairs = 10

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	bad := false
	for _, msg := range failures(parent, change) {
		fmt.Println("failure:", msg)
		bad = true
	}
	for _, msg := range countMismatches(append(append([]record(nil), parent...), change...)) {
		fmt.Println("count mismatch:", msg)
		bad = true
	}
	late, msgs := lateRuns(append(append([]record(nil), parent...), change...))
	for _, msg := range msgs {
		fmt.Println("generator late:", msg)
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		if r.Trace == 0 {
			workloads[r.Workload] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-9s %-16s %5s %12s %12s %8s %6s  %s\n", "workload", "metric", "pairs", "parent", "change", "spread", "wins", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			p := values(parent, w, m.Name)
			c := values(change, w, m.Name)
			v := judge(p, c, m.Better == "higher", m.Bound)
			if late[w] && v.verdict != "no data" {
				v.verdict = "unresolved"
			}
			fmt.Printf("%-9s %-16s %5d %12.4f %12.4f %7.1f%% %6d  %s\n", w, m.Name, v.pairs, v.parentMed, v.changeMed, 100*v.spread, v.wins, v.verdict)
			if v.verdict == "regressed" {
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

// values lists one metric of a workload's untraced runs, in file order.
func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// failures lists the change's incorrect runs, and each workload whose
// change runs failed more jobs than its parent runs.
func failures(parent, change []record) []string {
	var msgs []string
	failed := map[string][2]int{}
	for side, rs := range [][]record{parent, change} {
		for _, r := range rs {
			f := failed[r.Workload]
			f[side] += r.Failed
			failed[r.Workload] = f
			if side == 1 && !r.Correct {
				msgs = append(msgs, fmt.Sprintf("%s seed %d trace %d: change run incorrect, %d of %d jobs failed",
					r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted))
			}
		}
	}
	ws := make([]string, 0, len(failed))
	for w := range failed {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	for _, w := range ws {
		if f := failed[w]; f[1] > f[0] {
			msgs = append(msgs, fmt.Sprintf("%s: change failed %d jobs, parent %d", w, f[1], f[0]))
		}
	}
	return msgs
}

// lateRuns finds the runs whose load generator missed its schedule (see
// generatorLate). Their latencies time the generator as well as the
// program, so their workloads cannot be judged.
func lateRuns(rs []record) (map[string]bool, []string) {
	late := map[string]bool{}
	var msgs []string
	for _, r := range rs {
		if v, ok := r.Metrics["loadgen.late_ms_p99"]; ok && generatorLate(v) {
			late[r.Workload] = true
			msgs = append(msgs, fmt.Sprintf("%s seed %d trace %d: p99 lateness %.1f ms exceeds the %.0f ms send interval",
				r.Workload, r.Seed, r.Trace, v, sendIntervalMS))
		}
	}
	return late, msgs
}

// countMismatches checks that every count metric repeats exactly across
// traced runs of one workload at one seed.
func countMismatches(rs []record) []string {
	type key struct {
		workload string
		seed     uint64
	}
	first := map[key]record{}
	var msgs []string
	for _, r := range rs {
		if r.Trace != 1 {
			continue
		}
		k := key{r.Workload, r.Seed}
		f, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		for _, n := range countNames {
			if f.Metrics[n] != r.Metrics[n] {
				msgs = append(msgs, fmt.Sprintf("%s seed %d %s: %v vs %v", r.Workload, r.Seed, n, f.Metrics[n], r.Metrics[n]))
			}
		}
	}
	return msgs
}

type verdict struct {
	pairs, wins          int
	parentMed, changeMed float64
	spread               float64
	verdict              string
}

// judge applies the pairs rule to one metric.
func judge(parent, change []float64, higherBetter bool, bound float64) verdict {
	n := min(len(parent), len(change))
	v := verdict{pairs: n, verdict: "no data"}
	if n == 0 {
		return v
	}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	q := quartiles(parent)
	v.parentMed, v.changeMed = q[1], quartiles(change)[1]
	iqr := q[2] - q[0]
	if v.parentMed != 0 {
		v.spread = iqr / math.Abs(v.parentMed)
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := v.changeMed - v.parentMed
	if higherBetter {
		worse = -worse
	}
	switch {
	case v.spread > bound && !(n >= minPairs && allBetter):
		v.verdict = "unresolved"
	case n >= minPairs && float64(v.wins) >= 0.9*float64(n) && math.Abs(v.changeMed-v.parentMed) > iqr && worse < 0:
		v.verdict = "improved"
	case worse > bound*math.Abs(v.parentMed):
		v.verdict = "regressed"
	default:
		v.verdict = "within bound"
	}
	return v
}

// quartiles matches Python's statistics.quantiles(data, n=4), the
// "exclusive" method; a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return [3]float64{}
	}
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
