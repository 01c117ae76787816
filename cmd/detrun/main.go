// Command detrun runs a mini-JS program under the dynamic determinacy
// analysis and prints the inferred facts.
//
// Usage:
//
//	detrun [-dom] [-detdom] [-seed N] [-stats] [-trace out.jsonl]
//	       [-trace-format jsonl|chrome] [-metrics -] file.js
//
// Exit codes distinguish analysis outcomes (see -help).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"determinacy"
	"determinacy/internal/cliexit"
	"determinacy/internal/obs"
	"determinacy/internal/version"
)

func main() {
	var (
		withDOM  = flag.Bool("dom", false, "install the synthetic DOM emulation")
		detDOM   = flag.Bool("detdom", false, "assume a determinate DOM (implies -dom; unsound, §5.1)")
		seed     = flag.Uint64("seed", 0, "PRNG seed for Math.random")
		stats    = flag.Bool("stats", false, "print run statistics")
		flushes  = flag.Int("max-flushes", 1000, "stop after this many heap flushes (0 = unlimited)")
		jsonOut  = flag.Bool("json", false, "emit facts as JSON lines instead of rendered text")
		runs     = flag.Int("runs", 1, "instrumented runs with distinct seeds, merged per the paper's §7")
		traceOut = flag.String("trace", "", `write a pipeline trace to this file ("-" = stdout)`)
		traceFmt = flag.String("trace-format", "jsonl", "trace format: jsonl or chrome (trace_event JSON for Perfetto)")
		metrics  = flag.String("metrics", "", `write Prometheus-style metrics to this file ("-" appends them to stdout after the facts)`)
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the analysis (0 = none); a timed-out run still prints its sound partial facts")
		factDir  = flag.String("factcache", "", "directory for the on-disk fact DB; warm re-runs of an unchanged program serve byte-identical memoized facts")
		showVer  = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintln(o, "usage: detrun [flags] file.js")
		flag.PrintDefaults()
		fmt.Fprintln(o)
		fmt.Fprintln(o, cliexit.UsageText("detrun"))
	}
	flag.Parse()
	if *showVer {
		fmt.Println("detrun", version.String())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: detrun [flags] file.js")
		flag.Usage()
		os.Exit(cliexit.Usage)
	}
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detrun: "+format+"\n", args...)
		os.Exit(cliexit.Usage)
	}
	if *runs < 1 {
		badFlag("-runs must be at least 1, got %d", *runs)
	}
	if *flushes < 0 {
		badFlag("-max-flushes must be non-negative, got %d", *flushes)
	}
	if *timeout < 0 {
		badFlag("-timeout must be non-negative, got %v", *timeout)
	}
	src, rerr := os.ReadFile(flag.Arg(0))
	if rerr != nil {
		cliexit.Fatal("detrun", rerr)
	}

	opts := determinacy.Options{
		Seed:             *seed,
		WithDOM:          *withDOM || *detDOM,
		DeterministicDOM: *detDOM,
		RunHandlers:      8,
		MaxFlushes:       *flushes,
		Out:              os.Stdout,
	}
	if *jsonOut {
		// Keep stdout clean for the fact dump.
		opts.Out = os.Stderr
	}
	// The registry exists before the run so the fact cache can publish
	// its factcache_* series into it.
	var m *determinacy.Metrics
	if *metrics != "" {
		m = determinacy.NewMetrics()
	}
	if *factDir != "" {
		fc, err := determinacy.OpenFactCache(*factDir)
		if err != nil {
			cliexit.Fatal("detrun", err)
		}
		opts.FactCache = fc.WithMetrics(m)
	}

	// Tracing: jsonl streams events as they happen; chrome buffers in memory
	// and is written out after the run.
	var (
		chrome   *obs.ChromeTrace
		jsonl    *obs.JSONLWriter
		jsonlOut io.Closer
	)
	if *traceOut != "" {
		switch *traceFmt {
		case "jsonl":
			w, err := cliexit.OpenOut(*traceOut)
			if err != nil {
				cliexit.Fatal("detrun", err)
			}
			jsonl, jsonlOut = obs.NewJSONLWriter(w), w
			opts.Tracer = jsonl
		case "chrome":
			chrome = obs.NewChromeTrace()
			opts.Tracer = chrome
		default:
			fmt.Fprintf(os.Stderr, "detrun: unknown -trace-format %q (want jsonl or chrome)\n", *traceFmt)
			os.Exit(cliexit.Usage)
		}
	}
	finishTrace := func() {
		if chrome != nil {
			w, err := cliexit.OpenOut(*traceOut)
			if err != nil {
				cliexit.Fatal("detrun", err)
			}
			_, werr := chrome.WriteTo(w)
			if cerr := w.Close(); werr == nil {
				werr = cerr
			}
			chrome = nil
			if werr != nil {
				cliexit.Fatal("detrun", werr)
			}
		}
		if jsonl != nil {
			werr := jsonl.Err()
			if cerr := jsonlOut.Close(); werr == nil {
				werr = cerr
			}
			jsonl = nil
			if werr != nil {
				cliexit.Fatal("detrun", werr)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		res *determinacy.Result
		err error
	)
	if *runs > 1 {
		seeds := make([]uint64, *runs)
		for i := range seeds {
			seeds[i] = *seed + uint64(i)
		}
		var p *determinacy.Program
		if p, err = determinacy.Compile(flag.Arg(0), string(src)); err == nil {
			res, err = determinacy.AnalyzeRunsContext(ctx, p, opts, seeds...)
		}
	} else {
		res, err = determinacy.AnalyzeFileContext(ctx, flag.Arg(0), string(src), opts)
	}
	if err != nil {
		finishTrace()
		cliexit.Fatal("detrun", err)
	}
	finishTrace()
	if res.Partial {
		fmt.Fprintf(os.Stderr, "note: partial result (%s): analysis stopped early: %v\n", res.Degraded, res.Stopped)
	}

	if *jsonOut {
		if err := res.Store().Encode(os.Stdout); err != nil {
			cliexit.Fatal("detrun", err)
		}
	} else {
		for _, f := range res.Facts() {
			fmt.Println(f)
		}
	}

	if *stats {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "facts: %d (%d determinate)\n", res.NumFacts(), res.NumDeterminate())
		fmt.Fprintf(os.Stderr, "steps: %d, heap flushes: %d, counterfactuals: %d (aborts %d)\n",
			st.Steps, st.HeapFlushes, st.Counterfacts, st.CFAborts)
		var reasons []string
		for r := range st.FlushReasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(os.Stderr, "  flush %-22s %d\n", r, st.FlushReasons[r])
		}
	}

	if m != nil {
		res.ExportMetrics(m)
		w, err := cliexit.OpenOut(*metrics)
		if err != nil {
			cliexit.Fatal("detrun", err)
		}
		if err := m.WriteProm(w); err != nil {
			cliexit.Fatal("detrun", err)
		}
		if err := w.Close(); err != nil {
			cliexit.Fatal("detrun", err)
		}
	}

	if res.Partial {
		os.Exit(partialExit(res.Degraded))
	}
}

// partialExit maps a degradation reason to its documented exit code; the
// legacy flush-cap and budget codes are preserved, everything else (deadline,
// cancellation) reports the partial-run code.
func partialExit(r determinacy.DegradeReason) int {
	switch r {
	case determinacy.DegradeFlushCap:
		return cliexit.FlushCap
	case determinacy.DegradeBudget:
		return cliexit.Budget
	default:
		return cliexit.Partial
	}
}
