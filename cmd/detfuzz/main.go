// Command detfuzz runs the randomized differential-soundness campaign: it
// generates seeded mini-JS programs, collects determinacy facts from
// instrumented runs, replays concrete executions under random resolutions
// of every indeterminate input cross-checking each fact (Theorem 1), and
// differentially compares the concrete interpreter against the
// instrumented one. Failing programs are shrunk to minimal reproducers.
//
// Usage:
//
//	detfuzz [-seeds N] [-resolutions N] [-duration D] [-json]
//
// Generator seeds start at 1. Exit codes distinguish outcomes (see -help).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"determinacy/internal/cliexit"
	"determinacy/internal/diffcheck"
	"determinacy/internal/version"
)

func main() {
	var (
		seeds       = flag.Int("seeds", 200, "generated programs per round")
		resolutions = flag.Int("resolutions", 8, "concrete replays per program")
		duration    = flag.Duration("duration", 0, "repeat rounds (advancing seeds) until this much time has passed; 0 = a single round")
		jsonOut     = flag.Bool("json", false, "write the report as JSON to stdout")
		timeout     = flag.Duration("timeout", 0, "hard wall-clock cap for the campaign (0 = none); unchecked seeds are reported as skipped")
		factDir     = flag.String("factcache", "", "also run the memoization oracle against the fact DB in this directory: every program runs cold and warm and must be byte-identical")
		showVer     = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintln(o, "usage: detfuzz [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(o)
		fmt.Fprintln(o, cliexit.UsageText("detfuzz"))
	}
	flag.Parse()
	if *showVer {
		fmt.Println("detfuzz", version.String())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: detfuzz [flags]")
		flag.Usage()
		os.Exit(cliexit.Usage)
	}
	if *seeds <= 0 || *resolutions <= 0 {
		fmt.Fprintln(os.Stderr, "detfuzz: -seeds and -resolutions must be positive")
		os.Exit(cliexit.Usage)
	}
	if *timeout < 0 {
		fmt.Fprintln(os.Stderr, "detfuzz: -timeout must be non-negative")
		os.Exit(cliexit.Usage)
	}
	cfg := diffcheck.Config{
		Seeds:        *seeds,
		Resolutions:  *resolutions,
		FactCacheDir: *factDir,
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	var rep diffcheck.Report
	if *duration > 0 {
		rep = diffcheck.RunFor(cfg, *duration)
	} else {
		rep = diffcheck.Run(cfg)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			cliexit.Fatal("detfuzz", err)
		}
	} else {
		fmt.Printf("detfuzz: %d programs x %d resolutions, %d determinate fact checks, %d failures (%.1fs)\n",
			rep.Programs, rep.Resolutions, rep.FactsChecked, len(rep.Failures),
			time.Duration(rep.ElapsedMS*int64(time.Millisecond)).Seconds())
		if rep.MemoChecks > 0 {
			fmt.Printf("detfuzz: %d cold/warm memoization checks\n", rep.MemoChecks)
		}
		if rep.Skipped > 0 {
			fmt.Printf("detfuzz: %d seeds skipped (timeout)\n", rep.Skipped)
		}
		for i := range rep.Failures {
			f := &rep.Failures[i]
			fmt.Printf("\n--- failure %d: %s\n", i+1, f.String())
			if f.Minimized != "" {
				fmt.Printf("minimized reproducer:\n%s", f.Minimized)
			} else {
				fmt.Printf("program:\n%s", f.Program)
			}
		}
	}
	if len(rep.Failures) > 0 {
		os.Exit(cliexit.Violation)
	}
}
