// Command detserve is the analysis service: an HTTP/JSON frontend over
// the dynamic determinacy pipeline, hardened for sustained load.
//
// Endpoints:
//
//	POST /v1/analyze   source + seed + options → facts/stats JSON; a run
//	                   stopped by its deadline answers 200 with sound
//	                   partial facts and a degrade_reason
//	POST /v1/batch     several programs, fanned over the worker pool
//	GET  /metrics      Prometheus text: analysis, pool, cache, and server
//	                   series (in-flight, queue depth, shed/quarantine
//	                   counters, latency histograms)
//	GET  /healthz      liveness + build version
//	GET  /readyz       readiness; 503 while draining or circuit-broken
//	GET  /debug/statusz  flight recorder: last N request summaries
//	                     (JSON, or ?format=text)
//	GET  /debug/tracez   one request's retained trace by ?id=
//	                     (JSONL, or ?format=chrome)
//
// Streaming: POST /v1/analyze?stream=1 answers chunked NDJSON — trace
// events as the run executes, then one terminal result line; ?stream=sse
// uses text/event-stream framing. -debug-addr mounts the debug surface
// plus net/http/pprof on a second (private) listener.
//
// Overload is shed with 429 + Retry-After (bounded admission queue, never
// unbounded buffering). SIGTERM/SIGINT starts a graceful drain: readiness
// flips, in-flight runs get -drain to finish before being force-cancelled
// into sound partials, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"determinacy"
	"determinacy/internal/cliexit"
	"determinacy/internal/cluster"
	"determinacy/internal/obs"
	"determinacy/internal/server"
	"determinacy/internal/server/sched"
	"determinacy/internal/version"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8420", "listen address")
		inflight  = flag.Int("workers", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth beyond -workers (0 = 2x workers); excess requests are shed with 429")
		maxBody   = flag.Int64("max-body", 4<<20, "request body size limit in bytes")
		timeout   = flag.Duration("timeout", 10*time.Second, "default per-request analysis budget")
		maxTO     = flag.Duration("max-timeout", 30*time.Second, "hard ceiling over client-requested budgets")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT before in-flight runs are sealed partial")
		finalDump = flag.String("final-metrics", "", `write a last Prometheus metrics snapshot here on shutdown ("-" = stderr)`)
		debugAddr = flag.String("debug-addr", "", "if set, serve /debug/statusz, /debug/tracez, /metrics and net/http/pprof on this (private) address")
		flightN   = flag.Int("flight", 0, "flight-recorder capacity in requests (0 = default 512)")
		noTrace   = flag.Bool("no-trace", false, "disable per-request tracing (requests run on the zero-alloc nil-tracer path)")
		factDir   = flag.String("factcache", "", "directory for the on-disk fact DB (L2 under the compile cache); warm re-submissions of an unchanged program serve memoized facts")
		tenants   = flag.String("tenants", "", `per-tenant weighted-fair admission config, JSON or @file (none = first come, first served): {"pro":{"weight":4,"rate":50},"bulk":{"weight":1,"queue_cap":8},"*":{"weight":1}}`)
		heartbeat = flag.Duration("stream-heartbeat", 15*time.Second, "keepalive interval on ?stream= responses (0 = disabled)")
		peers     = flag.String("peers", "", `cluster topology, JSON or @file: {"self":"a","peers":{"a":"http://host-a:8420","b":"http://host-b:8420"}}; requests route to content-hash owners with full local fallback`)
		showVer   = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintln(o, "usage: detserve [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(o)
		fmt.Fprintln(o, cliexit.UsageText("detserve"))
	}
	flag.Parse()
	if *showVer {
		fmt.Println("detserve", version.String())
		return
	}
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detserve: "+format+"\n", args...)
		os.Exit(cliexit.Usage)
	}
	if flag.NArg() != 0 {
		badFlag("unexpected arguments %v", flag.Args())
	}
	if *inflight < 0 || *queue < 0 || *flightN < 0 {
		badFlag("-workers, -queue and -flight must be non-negative")
	}
	if *maxBody <= 0 {
		badFlag("-max-body must be positive, got %d", *maxBody)
	}
	if *timeout <= 0 || *maxTO <= 0 || *drain <= 0 {
		badFlag("-timeout, -max-timeout and -drain must be positive")
	}
	if *timeout > *maxTO {
		badFlag("-timeout %v exceeds -max-timeout %v", *timeout, *maxTO)
	}
	if *heartbeat < 0 {
		badFlag("-stream-heartbeat must be non-negative, got %v", *heartbeat)
	}
	tenantTable, tErr := sched.ParseTableFlag(*tenants)
	if tErr != nil {
		badFlag("%v", tErr)
	}
	topology, topErr := cluster.ParseTopologyFlag(*peers)
	if topErr != nil {
		badFlag("%v", topErr)
	}
	// Flag 0 disables heartbeats; Config 0 means "default", so map it to
	// the Config's explicit-disable (negative) encoding.
	streamHB := *heartbeat
	if streamHB == 0 {
		streamHB = -1
	}

	m := obs.NewMetrics()
	var router *cluster.Router
	if topology.Enabled() {
		var clErr error
		router, clErr = cluster.New(cluster.Config{Topology: topology, Metrics: m})
		if clErr != nil {
			badFlag("%v", clErr)
		}
	}
	var fc *determinacy.FactCache
	if *factDir != "" {
		var fcErr error
		fc, fcErr = determinacy.OpenFactCache(*factDir)
		if fcErr != nil {
			fmt.Fprintln(os.Stderr, "detserve:", fcErr)
			os.Exit(cliexit.Error)
		}
		fc = fc.WithMetrics(m)
	}
	srv := server.New(server.Config{
		MaxInFlight:     *inflight,
		QueueDepth:      *queue,
		MaxBodyBytes:    *maxBody,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTO,
		Metrics:         m,
		FlightEntries:   *flightN,
		DisableTracing:  *noTrace,
		FactCache:       fc,
		Tenants:         tenantTable,
		StreamHeartbeat: streamHB,
		Cluster:         router,
		DrainTimeout:    *drain,
	})
	if router != nil {
		router.Start()
		defer router.Close()
		log.Printf("detserve: cluster node %q with peers %v", router.Self(), router.Peers())
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detserve:", err)
		os.Exit(cliexit.Error)
	}
	// Catch the drain signals before announcing the address: a supervisor
	// may send SIGTERM as soon as it reads the line below.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	log.Printf("detserve %s listening on http://%s", version.String(), ln.Addr())

	// The debug surface — flight recorder, trace dumps, metrics, pprof —
	// also gets its own listener, so an operator can reach it where the
	// public port is closed. pprof is served only there; the public mux
	// serves /debug/statusz, /debug/tracez and /metrics as well.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.Handle("/debug/", srv.DebugHandler())
		dmux.Handle("/metrics", srv.DebugHandler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detserve:", err)
			os.Exit(cliexit.Error)
		}
		dbgSrv = &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		log.Printf("detserve: debug surface on http://%s (statusz, tracez, metrics, pprof)", dln.Addr())
		go func() {
			if err := dbgSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("detserve: debug listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "detserve:", err)
		os.Exit(cliexit.Error)
	case sig := <-sigCh:
		log.Printf("detserve: %v: draining (budget %v)", sig, *drain)
	}

	// Graceful drain: flip readiness and refuse new work immediately, run
	// the in-flight drain (finish or force-seal-partial at the budget)
	// concurrently with the HTTP shutdown that waits on those responses.
	srv.BeginDrain()
	drained := make(chan bool, 1)
	go func() { drained <- srv.Drain() }()
	shCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("detserve: shutdown: %v; closing remaining connections", err)
		httpSrv.Close()
	}
	if clean := <-drained; clean {
		log.Printf("detserve: drained clean: all in-flight requests completed")
	} else {
		log.Printf("detserve: drain budget expired: in-flight runs sealed sound partial results")
	}
	if dbgSrv != nil {
		dbgSrv.Close()
	}

	// Flush the metric sink so the final state of the run survives.
	if *finalDump != "" {
		w := os.Stderr
		if *finalDump != "-" {
			f, err := os.Create(*finalDump)
			if err != nil {
				fmt.Fprintln(os.Stderr, "detserve:", err)
				os.Exit(cliexit.Error)
			}
			defer f.Close()
			w = f
		}
		if err := m.WriteProm(w); err != nil {
			fmt.Fprintln(os.Stderr, "detserve:", err)
			os.Exit(cliexit.Error)
		}
	}
	os.Exit(cliexit.OK)
}
