// Command detbench reproduces the paper's evaluation (§5):
//
//	detbench -table1     Table 1 — pointer-analysis scalability on the
//	                     synthetic jQuery-version workloads, in the three
//	                     configurations Baseline / Spec / Spec+DetDOM.
//	detbench -eval       §5.2 — eval elimination over the 28-program corpus,
//	                     with and without the determinate-DOM assumption.
//	detbench -all        Both.
//
// The -budget flag sets the points-to work budget standing in for the
// paper's 10-minute timeout; -v prints per-benchmark details.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"determinacy"
	"determinacy/internal/cliexit"
	"determinacy/internal/experiment"
	"determinacy/internal/obs"
	"determinacy/internal/version"
)

func main() {
	var (
		table1      = flag.Bool("table1", false, "reproduce Table 1")
		evalst      = flag.Bool("eval", false, "reproduce the §5.2 eval study")
		all         = flag.Bool("all", false, "run everything")
		budget      = flag.Int("budget", 0, "points-to work budget in propagations (0 = 60,000)")
		seed        = flag.Uint64("seed", 0, "PRNG seed for the dynamic runs")
		workers     = flag.Int("workers", 0, "concurrent analysis jobs (0 = GOMAXPROCS, 1 = serial); output is byte-identical for every setting")
		metricsJSON = flag.String("metrics-json", "", `also write experiment metrics as JSON to this file ("-" = stdout); EXPERIMENTS.md numbers regenerate from this dump`)
		timeout     = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry remaining cells are skipped and the exit code is 7")
		factDir     = flag.String("factcache", "", "directory for the on-disk fact DB; a warm second invocation serves memoized dynamic runs with byte-identical tables")
		showVer     = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintln(o, "usage: detbench [-table1 | -eval | -all] [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(o)
		fmt.Fprintln(o, cliexit.UsageText("detbench"))
	}
	flag.Parse()
	if *showVer {
		fmt.Println("detbench", version.String())
		return
	}
	if !*table1 && !*evalst && !*all {
		flag.Usage()
		os.Exit(cliexit.Usage)
	}
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detbench: "+format+"\n", args...)
		os.Exit(cliexit.Usage)
	}
	if flag.NArg() != 0 {
		badFlag("unexpected arguments %v", flag.Args())
	}
	if *budget < 0 {
		badFlag("-budget must be non-negative, got %d", *budget)
	}
	if *workers < 0 {
		badFlag("-workers must be non-negative, got %d", *workers)
	}
	if *timeout < 0 {
		badFlag("-timeout must be non-negative, got %v", *timeout)
	}
	var m *obs.Metrics
	if *metricsJSON != "" {
		m = obs.NewMetrics()
	}
	cfg := experiment.Config{Budget: *budget, Seed: *seed, Workers: *workers, Metrics: m}
	if *factDir != "" {
		fc, err := determinacy.OpenFactCache(*factDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detbench:", err)
			os.Exit(cliexit.Error)
		}
		cfg.FactCache = fc.WithMetrics(m)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}

	if *table1 || *all {
		fmt.Println("== Table 1: pointer analysis scalability (paper §5.1) ==")
		rows := experiment.RunTable1(cfg)
		fmt.Print(experiment.FormatTable1(rows))
		fmt.Println()
		fmt.Println("propagation work (budget-limited points-to events):")
		for _, r := range rows {
			fmt.Printf("  %-6s baseline=%-8d spec=%-8d spec+detdom=%-8d\n",
				r.Version, r.Baseline.Propagations, r.Spec.Propagations, r.DetDOM.Propagations)
		}
		fmt.Println()
		if m != nil {
			experiment.Table1Metrics(rows, m)
		}
	}

	if *evalst || *all {
		fmt.Println("== §5.2: eliminating calls to eval ==")
		for _, det := range []bool{false, true} {
			s := experiment.RunEvalStudy(det, cfg)
			fmt.Print(experiment.FormatEvalStudy(s))
			fmt.Println()
			if m != nil {
				experiment.EvalStudyMetrics(s, m)
			}
		}
	}

	if m != nil {
		w := os.Stdout
		if *metricsJSON != "-" {
			f, err := os.Create(*metricsJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "detbench:", err)
				os.Exit(cliexit.Error)
			}
			defer f.Close()
			w = f
		}
		if err := m.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "detbench:", err)
			os.Exit(cliexit.Error)
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "detbench: timeout expired; results above cover only the cells that completed")
		os.Exit(cliexit.Partial)
	}
}
