package diffcheck

import (
	"context"
	"errors"
	"time"

	"determinacy/internal/batch"
	"determinacy/internal/guard"
)

// Config parameterizes a fuzz campaign.
type Config struct {
	// Seeds is the number of generated programs per round (default 200).
	Seeds int
	// Resolutions is the number of concrete replays per program, each under
	// a different resolution of the indeterminate inputs (default 8).
	Resolutions int
	// Ctx stops the campaign cooperatively: in-flight seeds finish, the
	// rest are skipped (counted in Report.Skipped). nil means no
	// cancellation.
	Ctx context.Context
	// FactCacheDir, when non-empty, additionally runs the memoization
	// oracle for every seed: each program is analyzed cold (populating
	// the fact DB under this directory) and warm (served from it through a
	// fresh handle), and the two runs must be byte-identical — see
	// KindMemoDiverge.
	FactCacheDir string
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 200
	}
	if c.Resolutions <= 0 {
		c.Resolutions = 8
	}
	return c
}

// Report summarizes a campaign; it marshals directly as the detfuzz JSON
// output.
type Report struct {
	Programs     int       `json:"programs"`
	Resolutions  int       `json:"resolutions"`
	FactsChecked int       `json:"facts_checked"`
	Failures     []Failure `json:"failures"`
	// Skipped counts seeds never checked because Config.Ctx was cancelled
	// mid-campaign.
	Skipped int `json:"skipped,omitempty"`
	// MemoChecks counts cold/warm memoization-oracle comparisons (two per
	// seed when Config.FactCacheDir is set: a complete leg and a
	// budget-limited partial leg).
	MemoChecks int   `json:"memo_checks,omitempty"`
	ElapsedMS  int64 `json:"elapsed_ms"`
}

// firstSeed is the first generator seed; program i of a round starting at
// seed b uses b+i.
const firstSeed = 1

// Run fans the campaign's programs out across the batch worker pool
// (GOMAXPROCS wide) and collects every oracle violation, each minimized
// by the delta-debugging reducer.
func Run(cfg Config) Report {
	cfg = cfg.withDefaults()
	return runOn(batch.New(0), cfg, firstSeed)
}

// RunFor repeats campaign rounds, advancing the seed range each time,
// until the deadline passes (at least one round always runs).
func RunFor(cfg Config, d time.Duration) Report {
	cfg = cfg.withDefaults()
	pool := batch.New(0)
	deadline := time.Now().Add(d)
	total := Report{Resolutions: cfg.Resolutions}
	start := time.Now()
	for base := uint64(firstSeed); ; base += uint64(cfg.Seeds) {
		rep := runOn(pool, cfg, base)
		total.Programs += rep.Programs
		total.FactsChecked += rep.FactsChecked
		total.MemoChecks += rep.MemoChecks
		total.Failures = append(total.Failures, rep.Failures...)
		total.Skipped += rep.Skipped
		if !time.Now().Before(deadline) {
			break
		}
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break
		}
	}
	total.ElapsedMS = time.Since(start).Milliseconds()
	return total
}

func runOn(pool *batch.Pool, cfg Config, base uint64) Report {
	start := time.Now()
	type outcome struct {
		checked    int
		memoChecks int
		fail       *Failure
	}
	outs, qs := batch.MapCtx(cfg.Ctx, pool, cfg.Seeds, func(i int) outcome {
		seed := base + uint64(i)
		checked, f := CheckSeed(seed, cfg.Resolutions)
		o := outcome{checked: checked, fail: f}
		if cfg.FactCacheDir != "" && o.fail == nil {
			o.memoChecks = 2
			o.fail = CheckMemoSeed(seed, cfg.FactCacheDir)
		}
		return o
	})
	rep := Report{Programs: cfg.Seeds, Resolutions: cfg.Resolutions}
	for _, q := range qs {
		var re *guard.RunError
		if errors.As(q.Err, &re) {
			// A panicking seed is itself an oracle violation: the analysis
			// must never crash on a generated program.
			outs[q.Index].fail = &Failure{Kind: KindCrash, GenSeed: base + uint64(q.Index),
				Resolution: -1, Detail: "panic: " + q.Err.Error()}
		} else {
			rep.Skipped++
		}
	}
	for _, o := range outs {
		rep.FactsChecked += o.checked
		rep.MemoChecks += o.memoChecks
		if o.fail != nil {
			// Memo-oracle failures depend on fact-DB state, which the
			// stateless reduction predicate cannot reproduce.
			if o.fail.Kind != KindMemoDiverge {
				o.fail.Minimized = Reduce(o.fail.Program,
					SameFailure(o.fail.Kind, cfg.Resolutions, o.fail.GenSeed))
			}
			rep.Failures = append(rep.Failures, *o.fail)
		}
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep
}
