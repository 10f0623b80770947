// Command floptd is the layout-compilation and offset-query daemon: it
// serves the offline optimizer's pipeline over HTTP. POST /v1/compile
// deduplicates identical programs into content-addressed layout IDs,
// POST /v1/layouts/{id}/offsets answers batch element→offset queries
// through the closed-form Strider path, POST /v1/simulate runs
// simulations asynchronously on a bounded worker pool, and /healthz +
// /metrics expose liveness and the obs-backed counter set. SIGTERM (or
// ^C) drains gracefully: in-flight requests finish, accepted simulate
// jobs run to completion, then the process exits.
//
// With -data-dir set the daemon is crash-safe: compiled layouts and
// accepted simulate jobs are journaled (snapshot + write-ahead log) and
// recovered on restart — every accepted job reaches a terminal state and
// every compiled layout keeps its ID, even across kill -9. Overload
// degrades gracefully: a circuit breaker sheds /v1/simulate after
// consecutive job failures while cheap routes keep flowing, declared
// retries draw from a token budget, Retry-After tracks queue depth, and
// -request-timeout bounds each request. -chaos enables seeded fault
// injection (delays, 500s, dropped connections, journal disk faults) for
// recovery drills; scripts/chaos_smoke.sh runs one end to end.
//
// With -peers and -node-id the daemon joins a static-membership
// cluster: layout IDs route to owner nodes over a consistent-hash ring
// (one compile cluster-wide per program), offset-query misses fill from
// peers with content-address verification, simulate jobs place onto the
// least-loaded member, and GET /v1/cluster/status reports the roster.
// Dead peers degrade to local compute behind per-peer circuit breakers;
// scripts/cluster_smoke.sh drills a 3-node cluster end to end.
//
// Usage:
//
//	floptd                               # serve on :8080
//	floptd -addr 127.0.0.1:9090 -workers 4 -queue 128
//	floptd -data-dir /var/lib/flopt -request-timeout 30s
//	floptd -data-dir /tmp/drill -chaos 0.2 -chaos-seed 42
//	floptd -addr :8081 -node-id a -peers 'a=http://h1:8081,b=http://h2:8082'
//	floptd -version
//	floptd -loadgen -target http://127.0.0.1:8080 -duration 10s
//	floptd -record /tmp/trace.jsonl                  # serve + record traffic
//	floptd -loadgen -spec examples/specs/bursty.json # drive a workload spec
//	floptd -loadgen -replay /tmp/trace.jsonl         # replay a recorded trace
//	floptd -loadgen -program mgrid                   # one-client preset spec
//
// The -loadgen mode turns the same binary into the measurement client
// scripts/loadtest_service.sh uses: it compiles one workload, hammers
// the offsets hot path from keep-alive connections (round-robin over
// comma-separated -target URLs in cluster mode), and prints the
// RPS/latency quantiles as JSON. With -spec, -replay or -program it
// instead issues a deterministic event stream from the internal/workload
// subsystem — multi-client arrival processes, SLO classes, request mixes
// — and reports per-class counts and latency quantiles. Serving with
// -record writes every served request as one line of a schema-versioned
// JSONL trace that -replay (and exptab -replay) reproduce bit-identically.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flopt/internal/cluster"
	"flopt/internal/service"
	"flopt/internal/version"
	"flopt/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// countSet counts how many of the given mode flags are set.
func countSet(flags ...bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// runSpecEvents expands a validated spec and issues its event stream.
func runSpecEvents(ctx context.Context, spec *workload.Spec, target string, pace float64) (*service.SpecLoadResult, error) {
	evs, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return service.RunSpecLoad(ctx, service.SpecLoadOptions{BaseURL: target, Events: evs, Pace: pace})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("floptd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", service.DefaultServerConfig().Workers, "simulate worker-pool width")
		queue        = fs.Int("queue", service.DefaultServerConfig().QueueDepth, "simulate queue depth (full queue answers 429)")
		cacheEntries = fs.Int("cache", service.DefaultServerConfig().CacheEntries, "compiled-layout LRU capacity")
		drainWait    = fs.Duration("drain-timeout", 2*time.Minute, "graceful-drain budget after SIGTERM")
		dataDir      = fs.String("data-dir", "", "durability directory for the layout and job journals; empty keeps all state in memory")
		reqTimeout   = fs.Duration("request-timeout", service.DefaultServerConfig().RequestTimeout, "per-request deadline (context) and connection read timeout; 0 disables the per-request deadline")
		chaosIntens  = fs.Float64("chaos", 0, "chaos fault-injection intensity in [0,1]: delayed/erroring/dropped requests and journal disk faults; 0 disables")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the deterministic chaos decision stream")
		showVersion  = fs.Bool("version", false, "print version and exit")

		peers       = fs.String("peers", "", "cluster roster as comma-separated id=url pairs (every member, self included); empty runs single-node")
		nodeID      = fs.String("node-id", "", "this node's roster ID (required with -peers)")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "cluster: load-gossip refresh interval")
		peerTimeout = fs.Duration("peer-timeout", 2*time.Second, "cluster: per-peer call deadline")

		loadgen     = fs.Bool("loadgen", false, "run as load-generation client instead of serving")
		target      = fs.String("target", "http://127.0.0.1:8080", "loadgen: daemon base URL, or comma-separated URLs to spread load across a cluster")
		duration    = fs.Duration("duration", 10*time.Second, "loadgen: measurement window")
		concurrency = fs.Int("concurrency", 32, "loadgen: concurrent client workers")
		batch       = fs.Int("batch", 4, "loadgen: offset queries per request")
		count       = fs.Int64("count", 512, "loadgen: run length per offset query")
		workloadArg = fs.String("workload", "swim", "loadgen: workload compiled and queried by the hammer mode")

		record   = fs.String("record", "", "serve: write every served compile/offsets/simulate request to this JSONL workload trace")
		specPath = fs.String("spec", "", "loadgen: expand and run a declarative workload spec (JSON; see examples/specs/)")
		replay   = fs.String("replay", "", "loadgen: replay a trace recorded with -record")
		pace     = fs.Float64("pace", 0, "loadgen: replay speed for -spec/-replay on the modeled timeline (1 = real time, 2 = twice as fast); 0 issues back to back")
		program  = fs.String("program", "", "loadgen: run a steady one-client spec over this named workload program (spec mode, any internal/workloads name)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("floptd"))
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *loadgen {
		var res any
		var err error
		switch {
		case countSet(*specPath != "", *replay != "", *program != "") > 1:
			fmt.Fprintln(stderr, "floptd: set at most one of -spec, -replay and -program")
			return 2
		case *specPath != "":
			var spec *workload.Spec
			if spec, err = workload.LoadSpecFile(*specPath); err == nil {
				res, err = runSpecEvents(ctx, spec, *target, *pace)
			}
		case *program != "":
			// The preset is a trivial one-client spec under the hood, so
			// any named workloads program gets the full spec machinery.
			spec := workload.SingleClientSpec(*program)
			if err = spec.Validate(); err == nil {
				res, err = runSpecEvents(ctx, spec, *target, *pace)
			}
		case *replay != "":
			var recs []workload.Record
			if recs, err = workload.ReadTraceFile(*replay); err == nil {
				res, err = service.RunSpecLoad(ctx, service.SpecLoadOptions{
					BaseURL: *target,
					Events:  workload.Events(recs),
					Pace:    *pace,
				})
			}
		default:
			res, err = service.RunLoad(ctx, service.LoadOptions{
				BaseURL:     *target,
				Workload:    *workloadArg,
				Duration:    *duration,
				Concurrency: *concurrency,
				Batch:       *batch,
				Count:       *count,
			})
		}
		if err != nil {
			fmt.Fprintln(stderr, "floptd:", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		return 0
	}

	cfg := service.DefaultServerConfig()
	cfg.Workers, cfg.QueueDepth, cfg.CacheEntries = *workers, *queue, *cacheEntries
	cfg.DataDir = *dataDir
	cfg.RecordPath = *record
	cfg.RequestTimeout = *reqTimeout
	cfg.ChaosIntensity, cfg.ChaosSeed = *chaosIntens, *chaosSeed
	if cfg.Workers < 1 || cfg.QueueDepth < 1 || cfg.CacheEntries < 1 {
		fmt.Fprintln(stderr, "floptd: -workers, -queue and -cache must be ≥ 1")
		return 2
	}
	if *chaosIntens < 0 || *chaosIntens > 1 {
		fmt.Fprintln(stderr, "floptd: -chaos must be in [0, 1]")
		return 2
	}
	if *reqTimeout < 0 {
		fmt.Fprintln(stderr, "floptd: -request-timeout must be ≥ 0")
		return 2
	}
	switch {
	case *peers != "" && *nodeID == "":
		fmt.Fprintln(stderr, "floptd: -peers requires -node-id")
		return 2
	case *peers == "" && *nodeID != "":
		fmt.Fprintln(stderr, "floptd: -node-id requires -peers")
		return 2
	case *peers != "":
		roster, err := cluster.ParseRoster(*peers)
		if err != nil {
			fmt.Fprintln(stderr, "floptd:", err)
			return 2
		}
		if *gossipEvery <= 0 || *peerTimeout <= 0 {
			fmt.Fprintln(stderr, "floptd: -gossip-interval and -peer-timeout must be > 0")
			return 2
		}
		cfg.Cluster = &service.ClusterConfig{
			Self:           *nodeID,
			Roster:         roster,
			GossipInterval: *gossipEvery,
			PeerTimeout:    *peerTimeout,
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "floptd:", err)
		return 1
	}
	// Slowloris defense: bound how long a connection may dribble its
	// headers and body, and how long an idle keep-alive socket is kept.
	// The per-request handler deadline is the -request-timeout context
	// plumbed by the service middleware.
	readTimeout := *reqTimeout
	if readTimeout <= 0 {
		readTimeout = 30 * time.Second
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		IdleTimeout:       120 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "floptd:", err)
		return 1
	}
	mode := "single-node"
	if cfg.Cluster != nil {
		mode = fmt.Sprintf("cluster node %s of %d", cfg.Cluster.Self, len(cfg.Cluster.Roster))
	}
	fmt.Fprintf(stdout, "floptd: %s listening on %s (%s workers=%d queue=%d cache=%d data-dir=%q chaos=%g)\n",
		version.Version, ln.Addr(), mode, cfg.Workers, cfg.QueueDepth, cfg.CacheEntries, cfg.DataDir, cfg.ChaosIntensity)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "floptd:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	fmt.Fprintln(stdout, "floptd: shutdown signal received, draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "floptd: http shutdown:", err)
		return 1
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "floptd:", err)
		return 1
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "floptd: journal close:", err)
		return 1
	}
	fmt.Fprintln(stdout, "floptd: drained, exiting")
	return 0
}
