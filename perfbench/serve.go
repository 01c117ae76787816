package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"determinacy"
	"determinacy/internal/ir"
	"determinacy/internal/parser"
	"determinacy/internal/server"
	"determinacy/internal/vm"
	"determinacy/internal/workload"
)

// The serve workload: an open loop POSTs /v1/analyze at a constant offered
// rate to an in-process server (fifo admission, tracing off, fact cache
// off) over at most nproc loopback connections, with nproc server slots.
// Each request is timed from when it was due. The seed draws the mix: most
// requests are distinct fact-heavy generated programs, which miss the
// compile cache; the rest repeat a few bodies, which hit it.

const (
	// serveRate is the offered load in requests per second. At 7.5-10 ms
	// of CPU per request it keeps two vCPUs a fifth to a quarter busy. On
	// a virtual machine the generator's p99 wake-up lateness is 8-15 ms
	// whatever the load (see README.md), so the send interval must stay
	// above that for the offered rate to hold.
	serveRate = 50
	// sendIntervalMS is the spacing of the generator's sends.
	sendIntervalMS = 1000.0 / serveRate
	// servePoolSize generated programs cycle in a seeded order; a program
	// recurs only after the whole pool, long after the 128-entry compile
	// cache has evicted it. A 30 s window sends four fifths of its 1500
	// requests from the pool, each program exactly once, and 30 rounds of
	// the 10 hot bodies: every seed offers the same work in another order,
	// so the sparse tail that p99 reads does not change with the seed.
	servePoolSize = 1200
	// One request in every serveBlock repeats a hot body.
	serveBlock = 5
	// serveHotEval is how many eval-corpus programs join the hot bodies.
	serveHotEval = 7
	// serveReplayJobs is the count-pass prefix replayed through the library.
	serveReplayJobs = 300
)

// serveInput is one request body with its golden key.
type serveInput struct {
	key string
	req server.AnalyzeRequest
	// body is the encoded request.
	body []byte
}

func serveGenConfig(i int) workload.GenConfig {
	return workload.GenConfig{
		Seed: 700_000 + uint64(i), MaxStmts: 40, WithProto: true, WithEval: true, WithForIn: true,
	}
}

// serveInputs builds the generated pool and the hot bodies. The hot bodies
// are read from examples/js relative to the repository root.
func serveInputs() (pool, hot []serveInput, err error) {
	mk := func(key string, req server.AnalyzeRequest) (serveInput, error) {
		b, err := json.Marshal(req)
		return serveInput{key: "serve/" + key, req: req, body: b}, err
	}
	for i := 0; i < servePoolSize; i++ {
		in, err := mk(fmt.Sprintf("g%04d", i), server.AnalyzeRequest{
			Name: fmt.Sprintf("g%04d.js", i), Source: workload.RandomProgram(serveGenConfig(i)), Seed: uint64(i),
		})
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, in)
	}
	add := func(key string, req server.AnalyzeRequest) error {
		in, err := mk(key, req)
		hot = append(hot, in)
		return err
	}
	for _, f := range []struct {
		name string
		seed uint64
	}{{"figure2", 2}, {"counter", 0}} {
		src, err := os.ReadFile("examples/js/" + f.name + ".js")
		if err != nil {
			return nil, nil, err
		}
		if err := add(f.name, server.AnalyzeRequest{Name: f.name + ".js", Source: string(src), Seed: f.seed}); err != nil {
			return nil, nil, err
		}
	}
	if err := add("jquery-1.0", server.AnalyzeRequest{Name: "jquery.js", Source: workload.JQuery(workload.JQ10), DOM: true, Handlers: paperHandlers}); err != nil {
		return nil, nil, err
	}
	n := 0
	for _, b := range workload.EvalCorpus() {
		if !b.Runnable || n == serveHotEval {
			continue
		}
		n++
		if err := add("eval-"+b.Name, server.AnalyzeRequest{Name: b.Name + ".js", Source: b.Source, DOM: true, Handlers: paperHandlers}); err != nil {
			return nil, nil, err
		}
	}
	return pool, hot, nil
}

// serveSequence draws the first n requests of the seed's mix. Every block
// of serveBlock requests holds one hot body at a seeded position, and the
// hot bodies take turns in seeded rounds, so every window carries the same
// share of each; the generated programs follow a seeded permutation.
func serveSequence(seed uint64, n int, pool, hot []serveInput) []*serveInput {
	rng := newRNG(seed)
	perm := rng.perm(len(pool))
	var hotOrder []int
	seq := make([]*serveInput, n)
	next, hotAt := 0, 0
	for i := range seq {
		if i%serveBlock == 0 {
			hotAt = i + rng.intn(serveBlock)
		}
		if i != hotAt {
			seq[i] = &pool[perm[next%len(perm)]]
			next++
			continue
		}
		if len(hotOrder) == 0 {
			hotOrder = rng.perm(len(hot))
		}
		seq[i] = &hot[hotOrder[0]]
		hotOrder = hotOrder[1:]
	}
	return seq
}

// liveServer is an in-process server on a loopback listener.
type liveServer struct {
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(traced bool, slots int) (*liveServer, error) {
	srv := server.New(server.Config{MaxInFlight: slots, SchedPolicy: "fifo", DisableTracing: !traced})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ls, nil
}

func (ls *liveServer) close() {
	_ = ls.http.Close() // closing an idle loopback server cannot fail usefully
	<-ls.done
}

type serveBench struct {
	seed      uint64
	conns     int
	pool, hot []serveInput
	seq       []*serveInput
	cursor    int
	live      *liveServer
	// traced serves the traced windows: request tracing and the flight
	// recorder on. It starts with the first traced window.
	traced *liveServer
	client *http.Client
}

func (s *serveBench) timingFromCountPass() bool { return true }

func (s *serveBench) setup(seed uint64) error {
	s.seed = seed
	s.conns = runtime.NumCPU()
	pool, hot, err := serveInputs()
	if err != nil {
		return err
	}
	s.pool, s.hot = pool, hot
	// Enough requests for any window at the offered rate; the sequence
	// continues across windows.
	s.seq = serveSequence(seed, serveRate*130, s.pool, s.hot)
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns, DisableCompression: true,
	}}
	if s.live, err = startServer(false, s.conns); err != nil {
		return err
	}
	// Warm up closed-loop on the hot bodies.
	for i := range s.hot {
		if err := s.post(s.live, &s.hot[i], nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.hot[i].key, err)
		}
	}
	return nil
}

func (s *serveBench) close() {
	for _, ls := range []**liveServer{&s.live, &s.traced} {
		if *ls != nil {
			(*ls).close()
			*ls = nil
		}
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// post sends one request and checks the response against its golden
// digest; bytes, when non-nil, receives the body size.
func (s *serveBench) post(ls *liveServer, in *serveInput, size *int) error {
	resp, err := s.client.Post(ls.url+"/v1/analyze", "application/json", bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if size != nil {
		*size = len(body)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	d, ok := responseDigest(body)
	if !ok {
		return errors.New("response has no elapsed_ms field")
	}
	if want := golden[in.key]; d != want {
		return fmt.Errorf("response digest %s, golden %q", d, want)
	}
	return nil
}

// generatorLate says whether a window's p99 send lateness exceeds the send
// interval. Latency runs from the due time, so such a window measures the
// generator's own scheduling as much as the server.
func generatorLate(lateP99MS float64) bool { return lateP99MS > sendIntervalMS }

type serveJob struct {
	in  *serveInput
	due time.Time
}

// run is the open loop. A traced window runs against the traced server.
func (s *serveBench) run(w *window, d time.Duration, rec *recorder) error {
	ls := s.live
	if rec != nil {
		if s.traced == nil {
			var err error
			if s.traced, err = startServer(true, s.conns); err != nil {
				return err
			}
		}
		ls = s.traced
	}
	before, err := scrape(s.client, ls.url)
	if err != nil {
		return err
	}
	n := int(d.Seconds() * serveRate)
	if s.cursor+n > len(s.seq) {
		return fmt.Errorf("window of %d requests overruns the %d-request sequence", n, len(s.seq))
	}
	jobs := make(chan serveJob, n) // sized to the sends, so the generator never blocks
	var lat latencies
	var bytesMu sync.Mutex
	var respBytes int
	var wg sync.WaitGroup
	for i := 0; i < s.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var size int
				err := s.post(ls, j.in, &size)
				ms := float64(time.Since(j.due)) / 1e6
				if err != nil {
					logf("serve %s: %v", j.in.key, err)
					ms = d.Seconds() * 1000
				}
				lat.add(ms, err == nil)
				bytesMu.Lock()
				respBytes += size
				bytesMu.Unlock()
			}
		}()
	}
	lateMS := make([]float64, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * float64(time.Second) / serveRate))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMS = append(lateMS, float64(time.Since(due))/1e6)
		if i > 0 && i%serveRate == 0 {
			w.cut(lat.done())
		}
		jobs <- serveJob{in: s.seq[s.cursor+i], due: due}
	}
	sendSpan := time.Since(t0)
	close(jobs)
	wg.Wait()
	s.cursor += n
	after, err := scrape(s.client, ls.url)
	if err != nil {
		return err
	}
	w.attempted, w.failed, w.latMS = n, lat.failed, lat.ms
	// Latency runs from the due time, so a generator that sends late
	// measures itself as well as the server. That does not make an output
	// wrong; compare mode refuses to judge such runs (see generatorLate).
	late := quantile(lateMS, 0.99)
	if generatorLate(late) {
		logf("serve: warning: load generator p99 lateness %.1f ms exceeds the %.0f ms send interval", late, sendIntervalMS)
	}
	route := `route="/v1/analyze"`
	w.extra = map[string]float64{
		"server.queue_wait_ms_p99": 1000 * histQuantile(before, after, "server_queue_wait_seconds", route, 0.99),
		"server.request_ms_p50":    1000 * histQuantile(before, after, "server_request_seconds", route, 0.50),
		"server.response_kb":       float64(respBytes) / 1024 / float64(n),
		"server.shed":              after.sum("server_shed_total") - before.sum("server_shed_total"),
		"loadgen.offered_rps":      float64(n-1) / sendSpan.Seconds(),
		"loadgen.late_ms_p99":      late,
	}
	if rec != nil {
		for _, ph := range []string{"exec", "handlers"} {
			lbl := fmt.Sprintf("phase=%q", ph)
			cnt := after.get("server_phase_seconds_count{"+lbl+"}") - before.get("server_phase_seconds_count{"+lbl+"}")
			sum := after.get("server_phase_seconds_sum{"+lbl+"}") - before.get("server_phase_seconds_sum{"+lbl+"}")
			logf("serve traced: server_phase_seconds{%s}: %.0f spans, %.3f ms mean", lbl, cnt, 1000*sum/math.Max(cnt, 1))
		}
	}
	return nil
}

// countPass replays the first requests of the seed's sequence through the
// library calls the server makes — compile cache, analysis, fact rendering,
// JSON encoding — timing each from outside, then re-runs the analyses
// under the tree engine.
func (s *serveBench) countPass() (map[string]float64, *recorder, int, error) {
	seq := serveSequence(s.seed, serveReplayJobs, s.pool, s.hot)
	rec := &recorder{}
	cache := determinacy.NewCache(0)
	var ck checkError
	var c libCounts
	for _, in := range seq {
		body, err := replayAnalyze(cache, in, determinacy.EngineBytecode, rec, &c)
		if err != nil {
			ck.failf("%s: %v", in.key, err)
			continue
		}
		d, _ := responseDigest(body)
		if want := golden[in.key]; d != want {
			ck.failf("%s: replay digest %s, golden %q", in.key, d, want)
		}
	}
	ratio, err := engineRatio(len(seq), func(i int, eng vm.Engine, r *recorder) error {
		req := seq[i].req
		p, err := cache.Compile(req.Name, req.Source)
		if err != nil {
			return err
		}
		_, err = determinacy.AnalyzeProgram(p, serveOptions(req, eng, r))
		return err
	})
	if err != nil {
		ck.failf("engine ratio: %v", err)
	}
	m := c.metrics()
	m["core.exec_tree_over_bytecode"] = ratio
	return m, rec, len(seq), ck.err()
}

// libCounts accumulates the deterministic counts of library analyses.
type libCounts struct {
	jobs, progHits                                        int
	steps, heapFlushes, envFlushes, cfs, cfAborts, capped int
	handlersRan, facts, determinate, instrs               int
}

// addFacts counts a result's rendered facts.
func (c *libCounts) addFacts(res *determinacy.Result, nFacts int) {
	c.facts += nFacts
	c.determinate += res.NumDeterminate()
}

// addRun counts the work of a result that executed (not a cache hit).
func (c *libCounts) addRun(res *determinacy.Result) {
	st := res.Stats
	c.steps += st.Steps
	c.heapFlushes += st.HeapFlushes
	c.envFlushes += st.EnvFlushes
	c.cfs += st.Counterfacts
	c.cfAborts += st.CFAborts
	if res.Degraded == determinacy.DegradeFlushCap {
		c.capped++
	}
	c.handlersRan += res.HandlersRan
}

func (c *libCounts) metrics() map[string]float64 {
	m := map[string]float64{
		"core.steps":             float64(c.steps),
		"core.heap_flushes":      float64(c.heapFlushes),
		"core.env_flushes":       float64(c.envFlushes),
		"core.counterfactuals":   float64(c.cfs),
		"core.cf_aborts":         float64(c.cfAborts),
		"core.flush_capped_runs": float64(c.capped),
		"dom.handlers_ran":       float64(c.handlersRan),
		"facts.rendered":         float64(c.facts),
		"ir.instrs":              float64(c.instrs),
	}
	if c.facts > 0 {
		m["facts.determinate_ratio"] = float64(c.determinate) / float64(c.facts)
	}
	if c.jobs > 0 {
		m["progcache.hit_ratio"] = float64(c.progHits) / float64(c.jobs)
	}
	return m
}

// timeFrontEnd times parse and lower of a source the compile cache missed
// on: progcache.compile_ms_per_job includes this work, which cannot be
// wrapped inside the cache from outside.
func timeFrontEnd(name, src string, rec *recorder, c *libCounts) {
	rec.begin(lParser)
	prog, err := parser.Parse(name, src)
	rec.end(lParser)
	if err != nil {
		return
	}
	rec.begin(lIR)
	mod, err := ir.Lower(prog)
	rec.end(lIR)
	if err == nil && c != nil {
		c.instrs += mod.NumInstrs
	}
}

// serveOptions are the analysis options the server derives from a request
// (fact cache off, the server's default flush cap).
func serveOptions(req server.AnalyzeRequest, eng determinacy.Engine, rec *recorder) determinacy.Options {
	return determinacy.Options{
		Seed: req.Seed, WithDOM: req.DOM || req.DetDOM, DeterministicDOM: req.DetDOM,
		RunHandlers: req.Handlers, MaxFlushes: 1000, Engine: eng, Tracer: rec.tracer(),
	}
}

// replayAnalyze is the server's /v1/analyze path for one request, called
// layer by layer; it returns the body the server would send, with
// elapsed_ms 0.
func replayAnalyze(cache *determinacy.Cache, in *serveInput, eng determinacy.Engine, rec *recorder, c *libCounts) ([]byte, error) {
	req := in.req
	rec.begin(lProgcache)
	p, hit, err := cache.CompileHit(req.Name, req.Source)
	rec.end(lProgcache)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.jobs++
		if hit {
			c.progHits++
		} else {
			timeFrontEnd(req.Name, req.Source, rec, c)
		}
	}
	// The fact cache is off here, so AnalyzeProgram's own glue belongs to
	// no layer; its phases still land on core and dom through the tracer.
	res, err := determinacy.AnalyzeProgram(p, serveOptions(req, eng, rec))
	if err != nil {
		return nil, err
	}
	rec.begin(lFacts)
	fs := res.Facts()
	rec.end(lFacts)
	if fs == nil {
		fs = []determinacy.Fact{}
	}
	if c != nil {
		c.addRun(res)
		c.addFacts(res, len(fs))
	}
	rec.begin(lServer)
	var buf bytes.Buffer
	st := res.Stats
	err = json.NewEncoder(&buf).Encode(server.AnalyzeResponse{
		Name: req.Name, Partial: res.Partial, DegradeReason: string(res.Degraded),
		NumFacts: res.NumFacts(), NumDeterminate: res.NumDeterminate(), Facts: fs,
		Stats: server.StatsJSON{
			Steps: st.Steps, HeapFlushes: st.HeapFlushes, EnvFlushes: st.EnvFlushes,
			Counterfactuals: st.Counterfacts, CFAborts: st.CFAborts, HandlersRan: res.HandlersRan,
		},
	})
	rec.end(lServer)
	return buf.Bytes(), err
}

// promSample is a parsed /metrics page: series name with labels -> value.
type promSample map[string]float64

func scrape(c *http.Client, url string) (promSample, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	ps := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		ps[line[:i]] = v
	}
	return ps, sc.Err()
}

func (p promSample) get(series string) float64 { return p[series] }

// sum adds every series of one metric family, whatever its labels.
func (p promSample) sum(family string) float64 {
	t := 0.0
	for k, v := range p {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates a quantile of the observations a histogram gained
// between two scrapes, interpolating linearly inside the bucket.
func histQuantile(before, after promSample, family, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + "_bucket{" + labels + ",le=\""
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(k[len(prefix):], "\"}")
		ub := math.Inf(1)
		if le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			ub = f
		}
		bs = append(bs, bucket{ub, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// recordServeGolden serves every input once, one at a time, and keeps the
// digest of each response.
func recordServeGolden() (map[string]string, error) {
	pool, hot, err := serveInputs()
	if err != nil {
		return nil, err
	}
	ls, err := startServer(false, 1)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	client := &http.Client{}
	g := map[string]string{}
	for _, in := range append(pool, hot...) {
		resp, err := client.Post(ls.url+"/v1/analyze", "application/json", bytes.NewReader(in.body))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %.200s", in.key, resp.StatusCode, body)
		}
		d, ok := responseDigest(body)
		if !ok {
			return nil, fmt.Errorf("%s: response has no elapsed_ms", in.key)
		}
		g[in.key] = d
	}
	return g, nil
}
