// Command detspec specializes a mini-JS program using determinacy facts
// from a dynamic analysis run: branches with determinately-false conditions
// are pruned, dynamic property accesses with determinate names become
// static, loops with determinate bounds unroll, functions are cloned per
// calling context, and (with -eval) determinate eval calls are replaced by
// their parsed code.
//
// Usage:
//
//	detspec [-dom] [-detdom] [-eval] [-stats] file.js > specialized.js
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"determinacy"
	"determinacy/internal/cliexit"
	"determinacy/internal/version"
)

func main() {
	var (
		withDOM    = flag.Bool("dom", false, "install the synthetic DOM emulation")
		detDOM     = flag.Bool("detdom", false, "assume a determinate DOM (implies -dom; unsound, §5.1)")
		seed       = flag.Uint64("seed", 0, "PRNG seed for Math.random")
		elimEval   = flag.Bool("eval", false, "also eliminate determinate eval calls")
		stats      = flag.Bool("stats", false, "print specialization statistics to stderr")
		factsFile  = flag.String("facts", "", "load facts from a detrun -json dump instead of running the dynamic analysis (excludes -seed, -dom, -detdom, -runs, -timeout and -factcache)")
		generalize = flag.Bool("generalize", false, "also apply context-insensitive fact projections (§7)")
		metrics    = flag.String("metrics", "", `write Prometheus-style metrics to this file ("-" appends them to stdout after the specialized program)`)
		runs       = flag.Int("runs", 1, "merge facts from this many dynamic runs with consecutive seeds (§7) before specializing")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the dynamic analysis (0 = none); a timed-out run still specializes with its sound partial facts and exits 7")
		factDir    = flag.String("factcache", "", "directory for the on-disk fact DB; re-specializing an unchanged program reuses memoized dynamic-analysis facts")
		showVer    = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintln(o, "usage: detspec [flags] file.js")
		flag.PrintDefaults()
		fmt.Fprintln(o)
		fmt.Fprintln(o, cliexit.UsageText("detspec"))
	}
	flag.Parse()
	if *showVer {
		fmt.Println("detspec", version.String())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: detspec [flags] file.js")
		flag.Usage()
		os.Exit(cliexit.Usage)
	}
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detspec: "+format+"\n", args...)
		os.Exit(cliexit.Usage)
	}
	if *runs < 1 {
		badFlag("-runs must be at least 1, got %d", *runs)
	}
	if *timeout < 0 {
		badFlag("-timeout must be non-negative, got %v", *timeout)
	}
	if *factsFile != "" {
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "dom", "detdom", "runs", "timeout", "factcache":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			badFlag("-facts skips the dynamic analysis, so it cannot take %s", strings.Join(ignored, " "))
		}
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		cliexit.Fatal("detspec", err)
	}

	specOpts := determinacy.SpecializeOptions{
		EliminateEval: *elimEval,
		Generalize:    *generalize,
	}
	// The registry exists before the run so the fact cache can publish
	// its factcache_* series into it.
	var m *determinacy.Metrics
	if *metrics != "" {
		m = determinacy.NewMetrics()
	}
	var spec *determinacy.Specialized
	var res *determinacy.Result
	if *factsFile != "" {
		f, err := os.Open(*factsFile)
		if err != nil {
			cliexit.Fatal("detspec", err)
		}
		spec, err = determinacy.SpecializeWithFacts(flag.Arg(0), string(src), f, specOpts)
		f.Close()
		if err != nil {
			cliexit.Fatal("detspec", err)
		}
	} else {
		opts := determinacy.Options{
			Seed:             *seed,
			WithDOM:          *withDOM || *detDOM,
			DeterministicDOM: *detDOM,
			RunHandlers:      8,
			MaxFlushes:       1000,
			Out:              io.Discard,
		}
		if *factDir != "" {
			fc, err := determinacy.OpenFactCache(*factDir)
			if err != nil {
				cliexit.Fatal("detspec", err)
			}
			opts.FactCache = fc.WithMetrics(m)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *runs > 1 {
			// §7: facts from runs on different seeds are all sound and merge
			// by union; the runs fan out across the worker pool.
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
			cliexit.Fatal("detspec", err)
		}
		if res.Partial {
			// Partial facts are sound, so specializing with them is safe —
			// just potentially less aggressive than a complete run's.
			fmt.Fprintf(os.Stderr, "detspec: warning: dynamic analysis stopped early (%s); specializing with partial facts\n", res.Degraded)
		}
		spec, err = res.Specialize(specOpts)
		if err != nil {
			cliexit.Fatal("detspec", err)
		}
	}
	fmt.Print(spec.Source)

	if *stats {
		s := spec.Stats
		fmt.Fprintf(os.Stderr, "branches pruned:      %d\n", s.BranchesPruned)
		fmt.Fprintf(os.Stderr, "accesses staticized:  %d\n", s.AccessesStaticized)
		fmt.Fprintf(os.Stderr, "loops unrolled:       %d (%d iterations)\n", s.LoopsUnrolled, s.UnrolledIterations)
		fmt.Fprintf(os.Stderr, "clones created:       %d\n", s.ClonesCreated)
		fmt.Fprintf(os.Stderr, "constants folded:     %d\n", s.ConstsFolded)
		if *elimEval {
			fmt.Fprintf(os.Stderr, "evals eliminated:     %d\n", s.EvalsEliminated)
			for _, site := range spec.EvalSites {
				fmt.Fprintf(os.Stderr, "  eval at line %-5d %s\n", site.Line, site.Status)
			}
		}
	}

	if m != nil {
		if res != nil {
			res.ExportMetrics(m)
		}
		s := spec.Stats
		m.Counter("spec_branches_pruned_total").Add(int64(s.BranchesPruned))
		m.Counter("spec_accesses_staticized_total").Add(int64(s.AccessesStaticized))
		m.Counter("spec_loops_unrolled_total").Add(int64(s.LoopsUnrolled))
		m.Counter("spec_unrolled_iterations_total").Add(int64(s.UnrolledIterations))
		m.Counter("spec_clones_created_total").Add(int64(s.ClonesCreated))
		m.Counter("spec_consts_folded_total").Add(int64(s.ConstsFolded))
		m.Counter("spec_evals_eliminated_total").Add(int64(s.EvalsEliminated))
		w, err := cliexit.OpenOut(*metrics)
		if err != nil {
			cliexit.Fatal("detspec", err)
		}
		if err := m.WriteProm(w); err != nil {
			cliexit.Fatal("detspec", err)
		}
		if err := w.Close(); err != nil {
			cliexit.Fatal("detspec", err)
		}
	}

	// Flush-cap stops keep exiting 0 (long-standing behavior: the cap is a
	// routine analysis bound); only wall-clock/cancellation stops signal 7.
	if res != nil && (res.Degraded == determinacy.DegradeDeadline || res.Degraded == determinacy.DegradeCancel) {
		os.Exit(cliexit.Partial)
	}
}
