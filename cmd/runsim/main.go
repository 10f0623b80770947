// Command runsim executes one workload on the simulated storage platform
// and prints the execution report.
//
// Usage:
//
//	runsim -workload swim                        # default layouts
//	runsim -workload swim -scheme inter          # optimized layouts
//	runsim -workload swim -scheme inter -policy demote
//	runsim -src program.fl -scheme inter
//	runsim -workload swim -faults 0.5 -seed 42   # degraded cluster (deterministic)
//	runsim -workload swim -metrics               # per-layer / per-array breakdown
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"flopt"
	"flopt/internal/exp"
	"flopt/internal/sim"
	"flopt/internal/storage/cache"
	"flopt/internal/version"
)

func main() {
	var (
		workload  = flag.String("workload", "", "built-in benchmark name")
		src       = flag.String("src", "", "mini-language source file")
		scheme    = flag.String("scheme", "default", "layout scheme: default, inter, inter-io, inter-storage, reindex, compmap")
		policy    = flag.String("policy", "lru", "cache policy: "+strings.Join(cache.Names(), ", "))
		ioCache   = flag.Int("io-cache", 0, "override I/O cache blocks")
		stCache   = flag.Int("storage-cache", 0, "override storage cache blocks")
		block     = flag.Int64("block", 0, "override block size in elements")
		parallelN = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for trace generation (1 = serial)")
		faults    = flag.Float64("faults", 0, "fault-injection intensity in [0,1] (0 = healthy platform)")
		seed      = flag.Int64("seed", 0, "fault-injection seed; identical seeds replay bit-identical runs")
		metrics   = flag.Bool("metrics", false, "collect and print the per-layer/per-array/per-node metrics breakdown")
		showVer   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("runsim"))
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(runFlags{
		workload: *workload, src: *src, scheme: *scheme, policy: *policy,
		parallel: *parallelN, faults: *faults, seedSet: set["seed"],
	}); err != nil {
		fmt.Fprintln(os.Stderr, "runsim:", err)
		fmt.Fprintln(os.Stderr, "usage: runsim -workload <name> | -src <file> [-scheme s] [-policy p] [-metrics]")
		os.Exit(2)
	}
	// Cap the scheduler to the trace-generation worker count, so
	// -parallel 1 restores a fully serial process.
	if *parallelN < runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(*parallelN)
	}

	cfg := sim.DefaultConfig()
	cfg.Policy = *policy
	if *ioCache > 0 {
		cfg.IOCacheBlocks = *ioCache
	}
	if *stCache > 0 {
		cfg.StorageCacheBlocks = *stCache
	}
	if *block > 0 {
		cfg.BlockElems = *block
	}
	cfg.FaultIntensity = *faults
	cfg.FaultSeed = *seed
	cfg.Metrics = *metrics
	if err := cfg.Validate(); err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var rep *sim.Report
	switch {
	case *workload != "":
		runner := exp.NewRunner()
		runner.Parallel = *parallelN
		var err error
		rep, err = runner.RunContext(ctx, *workload, cfg, exp.Scheme(*scheme))
		if err != nil {
			fail(err)
		}
	case *src != "":
		text, err := os.ReadFile(*src)
		if err != nil {
			fail(err)
		}
		p, err := flopt.Compile(*src, string(text))
		if err != nil {
			fail(err)
		}
		var opts []flopt.RunOption
		if *scheme == "inter" {
			res, oerr := flopt.Optimize(p, cfg)
			if oerr != nil {
				fail(oerr)
			}
			opts = append(opts, flopt.WithResult(res))
		}
		rep, err = flopt.Run(ctx, p, cfg, opts...)
		if err != nil {
			fail(err)
		}
	}

	fmt.Printf("policy            %s\n", rep.PolicyName)
	fmt.Printf("execution time    %.3f s\n", float64(rep.ExecTimeUS)/1e6)
	fmt.Printf("block requests    %d\n", rep.Accesses)
	fmt.Printf("io cache          %d accesses, %.1f%% miss\n", rep.IO.Accesses, 100*rep.IOMissRate())
	fmt.Printf("storage cache     %d accesses, %.1f%% miss\n", rep.Storage.Accesses, 100*rep.StorageMissRate())
	fmt.Printf("disk reads        %d (%d sequential), busy %.3f s\n",
		rep.DiskReads, rep.DiskSeqReads, float64(rep.DiskBusyUS)/1e6)
	if rep.Demotions > 0 {
		fmt.Printf("demotions         %d\n", rep.Demotions)
	}
	if *faults > 0 {
		fmt.Printf("fault injection   intensity %.2f, seed %d\n", *faults, *seed)
		fmt.Printf("degraded mode     %d retries, %d timeouts, %d degraded reads, %d failed-over blocks\n",
			rep.Retries, rep.Timeouts, rep.DegradedReads, rep.FailedOverBlocks)
	}
	if *metrics {
		if rep.Metrics == nil {
			fail(fmt.Errorf("metrics requested but no snapshot collected"))
		}
		printMetrics(os.Stdout, rep.Metrics)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "runsim:", err)
	os.Exit(1)
}
