package diffcheck

import (
	"bytes"
	"fmt"
	"strings"

	"determinacy"
	"determinacy/internal/workload"
)

// KindMemoDiverge: a warm (memoized) analysis differed from the cold run
// that populated the fact DB — on facts, statistics, console output, or
// partial/degraded status — or the cache was populated by a run that must
// never populate it (partial or errored). The memoization layer must be
// semantically invisible: byte-identical results, cold or warm.
const KindMemoDiverge Kind = "memo-divergence"

// memoTightMaxSteps forces the oracle's second leg into a budget-limited
// partial run, checking that sealed partials are byte-stable and never
// reach the fact DB. Small generated programs may still complete under
// it; the leg then degenerates into a second complete-run check, which
// is harmless.
const memoTightMaxSteps = 400

// CheckMemoSeed runs the memoization oracle for one generated program
// against the fact DB in dir: a cold analysis populates the cache, then a
// warm analysis through a fresh cache handle (simulating a new process)
// must produce byte-identical facts, statistics, output, and partial
// status. A second leg repeats the pair
// under a tight step budget so the run seals partial: the pair must
// still agree and the partial run must never populate the DB.
func CheckMemoSeed(genSeed uint64, dir string) *Failure {
	src := workload.RandomProgram(GenConfigFor(genSeed))
	if f := checkMemoSource(src, genSeed, dir); f != nil {
		f.GenSeed = genSeed
		return f
	}
	return nil
}

func checkMemoSource(src string, base uint64, dir string) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Kind: KindMemoDiverge, Resolution: -1, Detail: detail, Program: src}
	}
	run := func(maxSteps int, fc *determinacy.FactCache) (*determinacy.Result, []byte, error) {
		var out bytes.Buffer
		res, err := determinacy.Analyze(src, determinacy.Options{
			Seed:       resolutionSeed(base, 0),
			Inputs:     resolveInputs(base, 0),
			Out:        &out,
			MaxSteps:   maxSteps,
			MaxFlushes: oracleMaxFlushes,
			FactCache:  fc,
		})
		return res, out.Bytes(), err
	}

	for _, leg := range []struct {
		name     string
		maxSteps int
	}{{"complete", oracleMaxSteps}, {"partial", memoTightMaxSteps}} {
		fcCold, err := determinacy.OpenFactCache(dir)
		if err != nil {
			return &Failure{Kind: KindCrash, Resolution: -1, Detail: "open fact cache: " + err.Error(), Program: src}
		}
		resC, outC, errC := run(leg.maxSteps, fcCold)
		// A fresh handle for the warm leg simulates a new process: the hit
		// must come off disk, not from the cold handle's in-memory LRU.
		fcWarm, err := determinacy.OpenFactCache(dir)
		if err != nil {
			return &Failure{Kind: KindCrash, Resolution: -1, Detail: "open fact cache: " + err.Error(), Program: src}
		}
		resW, outW, errW := run(leg.maxSteps, fcWarm)

		if (errC == nil) != (errW == nil) || (errC != nil && errC.Error() != errW.Error()) {
			return fail(fmt.Sprintf("%s leg: cold and warm errors differ:\ncold: %v\nwarm: %v", leg.name, errC, errW))
		}
		cold := fcCold.Internal().Stats()
		warm := fcWarm.Internal().Stats()
		if errC != nil {
			if cold.Stores != 0 {
				return fail(fmt.Sprintf("%s leg: errored run populated the fact DB (%d stores)", leg.name, cold.Stores))
			}
			if !bytes.Equal(outC, outW) {
				return fail(fmt.Sprintf("%s leg: output before the error differs:\ncold: %q\nwarm: %q", leg.name, outC, outW))
			}
			continue
		}
		coldR, warmR := memoRender(resC, outC), memoRender(resW, outW)
		if coldR != warmR {
			return fail(fmt.Sprintf("%s leg: cold and warm runs differ at %s", leg.name, firstDiff(coldR, warmR)))
		}
		if resC.Partial {
			if cold.Stores != 0 {
				return fail(fmt.Sprintf("%s leg: partial run populated the fact DB (%d stores)", leg.name, cold.Stores))
			}
			if warm.Hits != 0 {
				return fail(fmt.Sprintf("%s leg: warm run hit the cache even though the cold run was partial", leg.name))
			}
		} else if cold.Stores > 0 && warm.Hits != 1 {
			return fail(fmt.Sprintf("%s leg: warm run missed the cache after a complete cold run (hits=%d misses=%d invalidations=%d)",
				leg.name, warm.Hits, warm.Misses, warm.Invalidations))
		} else if cold.Stores == 0 && cold.Skips == 0 {
			return fail(fmt.Sprintf("%s leg: complete run neither populated the fact DB nor recorded a skip", leg.name))
		}
	}
	return nil
}

// memoRender flattens everything a caller can observe about a run into
// one string, so cold and warm runs can be compared byte-for-byte.
func memoRender(res *determinacy.Result, out []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "partial=%v degraded=%s handlers=%d\n", res.Partial, res.Degraded, res.HandlersRan)
	fmt.Fprintf(&b, "stats=%+v\n", res.Stats)
	fmt.Fprintf(&b, "out=%q\n", out)
	for _, f := range res.Store().Sorted() {
		fmt.Fprintf(&b, "%d|%s|%d det=%v hits=%d val=%v\n", f.Instr, f.Ctx.Key(), f.Seq, f.Det, f.Hits, f.Val)
	}
	return b.String()
}

// firstDiff locates the first line where two renders diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\ncold: %s\nwarm: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length: cold %d lines, warm %d lines", len(la), len(lb))
}
