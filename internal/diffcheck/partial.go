package diffcheck

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/guard"
	"determinacy/internal/guard/faultinject"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
	"determinacy/internal/soundcheck"
)

// CheckPartial is the graceful-degradation oracle: it aborts an
// instrumented run mid-execution (cancelling its context after `after`
// checkpoint hits, via the fault injector) and verifies that the facts the
// truncated run still reports hold in every complete concrete replay.
// This is the executable form of the partial-result soundness claim: a run
// stopped by deadline or cancellation flushes conservatively (§4.3), so
// the surviving facts are exactly as trustworthy as a complete run's.
//
// It returns the number of fact checks exercised, whether the injected
// abort actually fired (a short program can finish before `after`
// checkpoints accumulate), and the first violation found. The injector is
// process-global, so callers must not run CheckPartial concurrently with
// other injection users.
func CheckPartial(src string, resolutions int, base uint64, after int64) (checked int, aborted bool, fail *Failure) {
	if resolutions < 1 {
		resolutions = 1
	}
	mod, err := ir.Compile("fuzz.js", src)
	if err != nil {
		return 0, false, &Failure{Kind: KindReject, Resolution: -1, Detail: "compile: " + err.Error(), Program: src}
	}
	static := ir.ID(mod.NumInstrs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm(&faultinject.Plan{
		Site:     faultinject.SiteCoreStep,
		After:    after,
		Action:   faultinject.Cancel,
		OnCancel: cancel,
	})
	defer faultinject.Disarm()

	store := facts.NewStore()
	a := core.New(mod, store, core.Options{
		Seed:       resolutionSeed(base, 0),
		Inputs:     resolveInputs(base, 0),
		Out:        io.Discard,
		MaxSteps:   oracleMaxSteps,
		MaxFlushes: oracleMaxFlushes,
		Ctx:        ctx,
	})
	_, runErr := a.Run()
	faultinject.Disarm()
	switch {
	case runErr == nil:
		// Program finished before the abort fired; nothing partial to check.
		return 0, false, nil
	case guard.ContextReason(runErr) == guard.DegradeNone:
		return 0, false, &Failure{Kind: KindCrash, Resolution: -1,
			Detail: "aborted run failed with a non-cancellation error: " + runErr.Error(), Program: src}
	}
	// Seal like the public API does before exposing a partial result.
	a.SealPartial()

	rstore := store.Restrict(static)
	for r := 0; r < resolutions; r++ {
		var out bytes.Buffer
		it := interp.New(mod, interp.Options{
			Seed:     resolutionSeed(base, r),
			Inputs:   resolveInputs(base, r),
			Out:      &out,
			MaxSteps: oracleMaxSteps,
		})
		ck := soundcheck.New(rstore)
		ck.Attach(it)
		if _, err := it.Run(); err != nil {
			return checked, true, &Failure{Kind: KindCrash, Resolution: r, Detail: "concrete run: " + err.Error(), Program: src}
		}
		checked += ck.Checked
		if len(ck.Mismatches) > 0 {
			return checked, true, &Failure{Kind: KindUnsound, Resolution: r,
				Detail:  fmt.Sprintf("partial facts (aborted after %d checkpoints) violated:\n%s", after, ck.Report(it.Mod)),
				Program: src}
		}
	}
	return checked, true, nil
}
