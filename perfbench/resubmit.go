package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"determinacy"
	"determinacy/internal/vm"
	"determinacy/internal/workload"
)

// The resubmit workload: one closed-loop client submits programs through
// the library — Cache.CompileHit, then AnalyzeProgram with a fact cache on
// a fresh directory. Each program is submitted cold (a fact-cache write),
// re-submitted (reads), then sent once as a one-function edit under the
// same name (the Diff path). The seed shuffles the programs and interleaves
// several programs' submissions.

const (
	resubGenerated = 256 // eval-free generated programs, and as many using eval
	resubReads     = 3   // warm re-submissions per program
	resubLanes     = 8   // programs in flight at once
	resubWarmJobs  = 600 // fills the compile and fact caches
	resubCountJobs = 300 // count-pass prefix
	resubSliceJobs = 250 // jobs per measurement slice, about a second
)

// Steps of one program's life: cold, resubReads reads, one edit.
const resubSteps = resubReads + 2

type resubProg struct {
	key, src, edit string
	opts           determinacy.Options
}

func resubGenConfig(i int) workload.GenConfig {
	eval := i >= resubGenerated
	return workload.GenConfig{
		Seed: 800_000 + uint64(i), MaxStmts: 30, WithProto: true, WithForIn: true, WithEval: eval,
	}
}

// resubPrograms builds the program pool: generated programs without and
// with eval, plus the runnable eval-corpus bodies under the DOM.
func resubPrograms() []resubProg {
	var ps []resubProg
	for i := 0; i < 2*resubGenerated; i++ {
		src := workload.RandomProgram(resubGenConfig(i))
		ps = append(ps, resubProg{
			key: fmt.Sprintf("resubmit/r%04d", i), src: src, edit: oneFunctionEdit(src),
			opts: determinacy.Options{Seed: uint64(i), MaxFlushes: 1000},
		})
	}
	for _, b := range workload.EvalCorpus() {
		if !b.Runnable {
			continue
		}
		ps = append(ps, resubProg{
			key: "resubmit/" + b.Name, src: b.Source, edit: oneFunctionEdit(b.Source),
			opts: determinacy.Options{WithDOM: true, RunHandlers: paperHandlers, MaxFlushes: 1000},
		})
	}
	return ps
}

// oneFunctionEdit adds a statement at the top of the first declared
// function's body (or at the end of the program when it declares none), so
// exactly one function's body changes.
func oneFunctionEdit(src string) string {
	const stmt = " var edited_ = 1;"
	i := strings.Index(src, "\nfunction ")
	if strings.HasPrefix(src, "function ") {
		i = 0
	}
	if i >= 0 {
		if b := strings.IndexByte(src[i:], '{'); b >= 0 {
			at := i + b + 1
			return src[:at] + stmt + src[at:]
		}
	}
	return src + "\n" + stmt + "\n"
}

// resubJob is one submission: step 0 is cold, the last step the edit.
type resubJob struct {
	prog, cycle, step int
}

func (j resubJob) name() string { return fmt.Sprintf("r%04d-c%d.js", j.prog, j.cycle) }

// resubSeq yields the seed's interleaved submission order. When the pool
// runs out it starts a new cycle under fresh names, so a recurring program
// is cold again.
type resubSeq struct {
	rng   *rng
	perm  []int
	next  int
	lanes []resubJob
}

func newResubSeq(seed uint64, n int) *resubSeq {
	q := &resubSeq{rng: newRNG(seed)}
	q.perm = q.rng.perm(n)
	for i := 0; i < resubLanes; i++ {
		q.lanes = append(q.lanes, q.fresh())
	}
	return q
}

func (q *resubSeq) fresh() resubJob {
	j := resubJob{prog: q.perm[q.next%len(q.perm)], cycle: q.next / len(q.perm)}
	q.next++
	return j
}

func (q *resubSeq) nextJob() resubJob {
	l := &q.lanes[q.rng.intn(len(q.lanes))]
	j := *l
	l.step++
	if l.step == resubSteps {
		*l = q.fresh()
	}
	return j
}

// resubState is one fresh cache directory with its caches.
type resubState struct {
	dir   string
	fc    *determinacy.FactCache
	m     *determinacy.Metrics
	cache *determinacy.Cache
	seq   *resubSeq
	// cold holds each in-flight program's cold digest, which its warm
	// reads must reproduce byte for byte.
	cold map[resubJob]string
}

func newResubState(seed uint64, nprogs int) (*resubState, error) {
	dir, err := os.MkdirTemp("", "perfbench-factcache-")
	if err != nil {
		return nil, err
	}
	m := determinacy.NewMetrics()
	fc, err := determinacy.OpenFactCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &resubState{
		dir: dir, fc: fc.WithMetrics(m), m: m, cache: determinacy.NewCache(0).WithMetrics(m),
		seq: newResubSeq(seed, nprogs), cold: map[resubJob]string{},
	}, nil
}

func (s *resubState) close() {
	if s != nil {
		os.RemoveAll(s.dir)
	}
}

// jobResult is what one submission did.
type jobResult struct {
	hit      bool          // served from the fact cache
	analyzed time.Duration // AnalyzeProgram's wall time
}

// submit runs one job and checks it: cold and edited results against their
// golden digests, reads against the cold result.
func (s *resubState) submit(progs []resubProg, j resubJob, eng determinacy.Engine, rec *recorder, c *libCounts) (jobResult, error) {
	var jr jobResult
	p := progs[j.prog]
	src, key := p.src, p.key
	if j.step == resubSteps-1 {
		src, key = p.edit, p.key+"/edit"
	}
	rec.begin(lProgcache)
	prog, progHit, err := s.cache.CompileHit(j.name(), src)
	rec.end(lProgcache)
	if err != nil {
		return jr, err
	}
	if c != nil {
		c.jobs++
		if progHit {
			c.progHits++
		} else {
			timeFrontEnd(j.name(), src, rec, c)
		}
	}
	var out bytes.Buffer
	opts := p.opts
	opts.Out, opts.FactCache, opts.Engine, opts.Tracer = &out, s.fc, eng, rec.tracer()
	hits := s.fc.Internal().Stats().Hits
	rec.begin(lFactcache)
	t0 := time.Now()
	res, err := determinacy.AnalyzeProgram(prog, opts)
	jr.analyzed = time.Since(t0)
	rec.end(lFactcache)
	if err != nil {
		return jr, err
	}
	jr.hit = s.fc.Internal().Stats().Hits > hits
	rec.begin(lFacts)
	fs := res.Facts()
	rec.end(lFacts)
	if c != nil {
		c.addFacts(res, len(fs))
		if !jr.hit {
			c.addRun(res)
		}
	}
	d := resultDigest(fs, res, out.Bytes())
	if want := golden[key]; d != want {
		return jr, fmt.Errorf("%s (%s step %d): digest %s, golden %q", key, j.name(), j.step, d, want)
	}
	switch base := (resubJob{prog: j.prog, cycle: j.cycle}); {
	case j.step == 0:
		s.cold[base] = d
	case j.step == resubSteps-1:
		delete(s.cold, base)
	case s.cold[base] != d:
		return jr, fmt.Errorf("%s: warm result %s differs from cold %s", j.name(), d, s.cold[base])
	}
	return jr, nil
}

type resubmitBench struct {
	seed  uint64
	progs []resubProg
	st    *resubState
}

func (r *resubmitBench) timingFromCountPass() bool { return false }

func (r *resubmitBench) setup(seed uint64) error {
	r.seed = seed
	r.progs = resubPrograms()
	st, err := newResubState(seed, len(r.progs))
	if err != nil {
		return err
	}
	r.st = st
	for i := 0; i < resubWarmJobs; i++ {
		if _, err := st.submit(r.progs, st.seq.nextJob(), determinacy.EngineDefault, nil, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (r *resubmitBench) close() {
	r.st.close()
	r.st = nil
}

func (r *resubmitBench) run(w *window, d time.Duration, rec *recorder) error {
	var hitMS, missMS []float64
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		jr, err := r.st.submit(r.progs, r.st.seq.nextJob(), determinacy.EngineDefault, rec, nil)
		ms := float64(time.Since(t0)) / 1e6
		w.attempted++
		if err != nil {
			logf("resubmit: %v", err)
			w.failed++
			ms = d.Seconds() * 1000
		} else if rec != nil {
			if jr.hit {
				hitMS = append(hitMS, float64(jr.analyzed)/1e6)
			} else {
				missMS = append(missMS, float64(jr.analyzed)/1e6)
			}
		}
		w.latMS = append(w.latMS, ms)
		if w.attempted%resubSliceJobs == 0 {
			w.cut(w.attempted - w.failed)
		}
	}
	if rec != nil {
		w.extra = map[string]float64{
			"factcache.hit_ms_p50":  median(hitMS),
			"factcache.miss_ms_p50": median(missMS),
		}
	}
	return nil
}

// countPass replays the seed's first jobs on a fresh cache directory,
// traced, then re-runs the analyses that executed under the tree engine.
func (r *resubmitBench) countPass() (map[string]float64, *recorder, int, error) {
	st, err := newResubState(r.seed, len(r.progs))
	if err != nil {
		return nil, nil, 0, err
	}
	defer st.close()
	rec := &recorder{}
	var c libCounts
	var ck checkError
	var executed []resubJob
	for i := 0; i < resubCountJobs; i++ {
		j := st.seq.nextJob()
		jr, err := st.submit(r.progs, j, determinacy.EngineBytecode, rec, &c)
		if err != nil {
			ck.failf("%v", err)
			continue
		}
		if !jr.hit {
			executed = append(executed, j)
		}
	}
	ratio, err := engineRatio(len(executed), func(i int, eng vm.Engine, rec *recorder) error {
		j := executed[i]
		p := r.progs[j.prog]
		src := p.src
		if j.step == resubSteps-1 {
			src = p.edit
		}
		prog, err := st.cache.Compile(j.name(), src)
		if err != nil {
			return err
		}
		opts := p.opts
		opts.Engine, opts.Tracer = eng, rec.tracer()
		_, err = determinacy.AnalyzeProgram(prog, opts)
		return err
	})
	if err != nil {
		ck.failf("engine ratio: %v", err)
	}
	fs := st.fc.Internal().Stats()
	m := c.metrics()
	m["factcache.stores"] = float64(fs.Stores)
	m["factcache.fn_unchanged"] = float64(fs.FnUnchanged)
	m["factcache.skips_eval"] = float64(st.m.Counter(`factcache_skips_total{reason="eval"}`).Value())
	if fs.Hits+fs.Misses > 0 {
		m["factcache.hit_ratio"] = float64(fs.Hits) / float64(fs.Hits+fs.Misses)
	}
	m["core.exec_tree_over_bytecode"] = ratio
	return m, rec, resubCountJobs, ck.err()
}

// recordResubmitGolden analyzes every program and its edit without any
// cache.
func recordResubmitGolden() (map[string]string, error) {
	g := map[string]string{}
	for _, p := range resubPrograms() {
		for _, v := range []struct{ key, src string }{{p.key, p.src}, {p.key + "/edit", p.edit}} {
			var out bytes.Buffer
			opts := p.opts
			opts.Out = &out
			res, err := determinacy.AnalyzeFile("program.js", v.src, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.key, err)
			}
			g[v.key] = resultDigest(res.Facts(), res, out.Bytes())
		}
	}
	return g, nil
}
