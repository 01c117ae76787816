// Command perfbench is the repository's benchmark. It runs one named
// workload in one process, checks every output against golden values, and
// prints every metric by name with its unit. The last line of standard
// output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer metrics of a traced run. Two more
// modes serve maintenance:
//
//	perfbench compare PARENT.jsonl CHANGE.jsonl   judge a change (see compare.go)
//	perfbench record                              rewrite perfbench/golden/
//
// See perfbench/README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// bench is one named workload: an input set and the loop that drives it.
type bench interface {
	// setup builds the inputs from the seed plus any server or cache, and
	// warms up. It runs several times per invocation; the last one is used.
	setup(seed uint64) error
	// run drives jobs for about d, recording them in w. rec is nil for
	// untraced runs; a traced run times layer calls on it and turns on the
	// program's tracers.
	run(w *window, d time.Duration, rec *recorder) error
	// countPass replays a fixed prefix of the job sequence on fresh state,
	// traced, and reports its deterministic counts, the engine ratio and the
	// layer timings of the replay. It reports checks that failed as errors.
	countPass() (metrics map[string]float64, rec *recorder, jobs int, err error)
	// timingFromCountPass says the per-layer times come from the count pass
	// replay rather than the traced window (the server's internals cannot
	// be wrapped from outside).
	timingFromCountPass() bool
	close()
}

func newWorkload(name string) (bench, error) {
	switch name {
	case "paper":
		return &paperBench{}, nil
	case "serve":
		return &serveBench{}, nil
	case "resubmit":
		return &resubmitBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, serve or resubmit)", name)
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as --out appends it, the input of compare mode.
type record struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     int    `json:"trace"`
	Seconds   int    `json:"seconds"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds the printed metrics plus, for untraced runs, the
	// workload's own figures (such as the load generator's lateness).
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record":
			if err := recordGolden(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench record:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper, serve or resubmit")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics traced")
	out := fs.String("out", "", "append this run as a JSON line to FILE (input of compare mode)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, vals, err := runBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, record{
			Workload: *name, Seed: *seed, Trace: *trace, Seconds: *seconds,
			Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: vals,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runBench runs one workload. It returns the result to print and the values
// to record, which for an untraced run also hold the workload's own figures.
func runBench(name string, seed uint64, d time.Duration, traced bool) (*result, map[string]float64, error) {
	wl, err := newWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	defer wl.close()
	g, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	golden = g

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			wl.close()
		}
		t0 := time.Now()
		if err := wl.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var vals, extra map[string]float64
	res := &result{Correct: true}
	if !traced {
		w, err := measureWindow(func(w *window) error { return wl.run(w, d, nil) })
		if err != nil {
			return nil, nil, err
		}
		vals, extra = w.endToEnd(), w.extra
		vals["setup_s"] = median(setups)
		res.Attempted, res.Failed = w.attempted, w.failed
		logf("%s seed=%d untraced: %d jobs (%d failed) in %.2fs; setup %.3fs", name, seed, w.attempted, w.failed, w.elapsed.Seconds(), vals["setup_s"])
	} else {
		var attempted, failed int
		vals, attempted, failed, err = runTraced(wl, name, d)
		if err != nil {
			var ce *checkError
			if !errors.As(err, &ce) {
				return nil, nil, err
			}
			logf("%s: %v", name, err)
			res.Correct = false
		}
		res.Attempted, res.Failed = attempted, failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	res.Metrics = make(map[string]metricJSON, len(vals))
	for _, k := range names {
		res.Metrics[k] = metricJSON{Value: vals[k], Unit: unitOf(k)}
		logf("  %-34s %14.4f %s", k, vals[k], unitOf(k))
	}
	for k, v := range extra {
		logf("  %-34s %14.4f %s (recorded, not printed)", k, v, unitOf(k))
		vals[k] = v
	}
	return res, vals, nil
}

// tracedSlices is how many untraced and as many traced slices a traced run
// alternates, so drift over the run cancels out of trace.overhead_ratio.
const tracedSlices = 4

// runTraced measures half the window untraced and half traced, in
// alternating slices, then runs the deterministic count pass, and
// assembles the per-layer metrics. The count pass's jobs count as attempted
// and each of its output mismatches as a failed job. It reports mismatches
// as a *checkError.
func runTraced(wl bench, name string, d time.Duration) (map[string]float64, int, int, error) {
	slice := d / (2 * tracedSlices)
	wu, wt := &window{}, &window{}
	rec := &recorder{}
	for i := 0; i < tracedSlices; i++ {
		for _, side := range []struct {
			w   *window
			rec *recorder
		}{{wu, nil}, {wt, rec}} {
			w, err := measureWindow(func(w *window) error { return wl.run(w, slice, side.rec) })
			if err != nil {
				return nil, 0, 0, err
			}
			side.w.merge(w)
		}
	}
	attempted := wu.attempted + wt.attempted
	failed := wu.failed + wt.failed
	logf("%s traced: untraced %d jobs, traced %d jobs, %d failed", name, wu.attempted, wt.attempted, failed)

	var ck checkError
	counts, crec, cjobs, cerr := wl.countPass()
	if cerr != nil {
		var ce *checkError
		if !errors.As(cerr, &ce) {
			return nil, 0, 0, cerr
		}
		failed += min(len(ce.msgs), cjobs)
		ck.msgs = append(ck.msgs, ce.msgs...)
	}
	attempted += cjobs
	vals := map[string]float64{}
	for _, k := range perLayerNames {
		vals[k] = 0
	}
	for k, v := range wt.extra {
		vals[k] = v
	}
	for k, v := range counts {
		vals[k] = v
	}
	timing, tjobs := rec, wt.attempted-wt.failed
	if wl.timingFromCountPass() {
		timing, tjobs = crec, cjobs
	}
	for k, v := range layerTimes(timing, tjobs) {
		vals[k] = v
	}
	// A layer the timed path does not call on its own (the front end inside
	// the compile cache) is timed in the count pass.
	for k, v := range layerTimes(crec, cjobs) {
		if vals[k] == 0 {
			vals[k] = v
		}
	}
	if ms := crec.selfMS(lCore); ms > 0 {
		vals["core.steps_per_ms"] = vals["core.steps"] / ms
	}
	done := float64(wt.attempted - wt.failed)
	if done < 1 {
		done = 1
	}
	vals["error_rate"] = float64(failed) / float64(max(attempted, 1))
	vals["runtime.gc_cycles_per_job"] = float64(wt.gcs) / done
	vals["runtime.gc_pause_ms"] = float64(wt.pause) / 1e6
	if u := wu.endToEnd()["cpu_ms_per_job"]; u > 0 {
		vals["trace.overhead_ratio"] = wt.endToEnd()["cpu_ms_per_job"] / u
	}
	return vals, attempted, failed, ck.err()
}

// layerTimes turns a recorder's self times into the per-job layer timings.
func layerTimes(r *recorder, jobs int) map[string]float64 {
	if r == nil || jobs < 1 {
		return nil
	}
	n := float64(jobs)
	m := map[string]float64{}
	for l, name := range layerTimeNames {
		m[name] = r.selfMS(layer(l)) / n
	}
	return m
}

// layerTimeNames names each layer's self-time-per-job metric.
var layerTimeNames = [numLayers]string{
	lParser:     "parser.ms_per_job",
	lIR:         "ir.lower_ms_per_job",
	lProgcache:  "progcache.compile_ms_per_job",
	lCore:       "core.exec_ms_per_job",
	lDOM:        "dom.handlers_ms_per_job",
	lSpecialize: "specialize.ms_per_job",
	lAST:        "ast.print_ms_per_job",
	lPointsto:   "pointsto.solve_ms_per_job",
	lFacts:      "facts.render_ms_per_job",
	lFactcache:  "factcache.self_ms_per_job",
	lServer:     "server.encode_ms_per_job",
}

// checkError collects outputs that did not match their golden values.
type checkError struct{ msgs []string }

func (e *checkError) Error() string {
	s := fmt.Sprintf("%d output check(s) failed", len(e.msgs))
	for i, m := range e.msgs {
		if i == 5 {
			s += "; ..."
			break
		}
		s += "; " + m
	}
	return s
}

func (e *checkError) failf(format string, args ...any) {
	e.msgs = append(e.msgs, fmt.Sprintf(format, args...))
}

// err returns e when it holds a mismatch, else nil.
func (e *checkError) err() error {
	if len(e.msgs) == 0 {
		return nil
	}
	return e
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
