// Command exptab regenerates the paper's tables and figures on the
// simulated platform.
//
// Usage:
//
//	exptab -exp all
//	exptab -exp table2,fig7a -v
//	exptab -exp fig7c -io-cache 128 -storage-cache 256
//	exptab -exp all -parallel 8      # 8 experiment/trace workers
//	exptab -exp all -parallel 1      # fully serial (reference path)
//	exptab -exp faults -seed 42      # fault sweep: wins vs fault intensity
//	exptab -exp table2 -faults 0.5   # base tables on a degraded cluster
//	exptab -exp table2 -metrics-out cells.jsonl   # per-cell metric snapshots
//	exptab -exp table2 -cpuprofile cpu.prof -memprofile mem.prof
//	exptab -exp workload -spec examples/specs/bursty.json   # per-SLO-class sweep
//	exptab -exp workload -replay trace.jsonl    # same, from a recorded trace
//
// Experiments: table1, table2, table3, fig7a … fig7h, optstats,
// ablations, prefetch, faults, workload, all. The workload experiment
// needs an event stream (-spec or -replay) and is therefore not part of
// "all". The emitted tables — and the -metrics-out snapshots — are
// bit-identical for every -parallel value, with or without fault
// injection; only wall-clock changes. ^C cancels the in-flight cells
// promptly instead of waiting out the grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flopt/internal/exp"
	"flopt/internal/sim"
	"flopt/internal/version"
	"flopt/internal/workload"
)

// expFn builds one table; every builder takes the run context first so ^C
// propagates into the experiment cells.
type expFn func(context.Context, *exp.Runner, sim.Config) (*exp.Table, error)

var builders = map[string]expFn{
	"table2":    exp.Table2,
	"table3":    exp.Table3,
	"fig7a":     exp.Fig7a,
	"fig7b":     exp.Fig7b,
	"fig7c":     exp.Fig7c,
	"fig7d":     exp.Fig7d,
	"fig7e":     exp.Fig7e,
	"fig7f":     exp.Fig7f,
	"fig7g":     exp.Fig7g,
	"fig7h":     exp.Fig7h,
	"optstats":  exp.OptStats,
	"ablations": exp.Ablations,
	"prefetch":  exp.Prefetch,
	"faults":    exp.FaultSweep,
}

var order = []string{"table1", "table2", "table3", "fig7a", "fig7b", "fig7c",
	"fig7d", "fig7e", "fig7f", "fig7g", "fig7h", "optstats", "ablations", "prefetch", "faults",
	"workload"}

// selectExperiments expands and validates the -exp list against the known
// builder names (plus table1, which has no runner, and workload, which
// takes its input from -spec/-replay and is excluded from "all").
func selectExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		if name == "all" {
			for _, n := range order {
				if n == "workload" {
					continue // needs -spec/-replay input
				}
				want[n] = true
			}
			continue
		}
		if name != "table1" && name != "workload" {
			if _, ok := builders[name]; !ok {
				return nil, fmt.Errorf("unknown experiment %q (want one of %s, all)",
					name, strings.Join(order, ", "))
			}
		}
		want[name] = true
	}
	return want, nil
}

// validateSeed rejects an explicit -seed that cannot influence anything:
// it matters only with -faults > 0, or for the faults experiment (which
// sweeps intensities itself from the seed).
func validateSeed(seedSet bool, faults float64, want map[string]bool) error {
	if seedSet && faults <= 0 && !want["faults"] {
		return fmt.Errorf("-seed has no effect without -faults > 0 (or -exp faults)")
	}
	return nil
}

func main() {
	var (
		expList    = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,fig7a..fig7h,optstats,ablations,prefetch,faults,all")
		verbose    = flag.Bool("v", false, "print per-run progress and per-table wall-clock")
		policy     = flag.String("policy", "lru", "cache policy for the base experiments: lru, demote, karma, mq")
		ioCache    = flag.Int("io-cache", 0, "override I/O cache blocks")
		stCache    = flag.Int("storage-cache", 0, "override storage cache blocks")
		blockSize  = flag.Int64("block", 0, "override block size in elements")
		parallelN  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiment cells and trace generation (1 = serial)")
		faults     = flag.Float64("faults", 0, "fault-injection intensity in [0,1] applied to the base experiments (0 = healthy; the faults experiment sweeps intensities itself)")
		seed       = flag.Int64("seed", 0, "fault-injection seed; identical seeds replay bit-identical fault runs")
		specPath   = flag.String("spec", "", "workload spec JSON driving -exp workload")
		replayPath = flag.String("replay", "", "recorded trace JSONL driving -exp workload")
		metricsOut = flag.String("metrics-out", "", "write one JSONL metric snapshot per experiment cell to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (after the experiments) to this file")
		showVer    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("exptab"))
		return
	}

	if *parallelN < 1 {
		fmt.Fprintln(os.Stderr, "exptab: -parallel must be ≥ 1")
		os.Exit(1)
	}
	// Cap the scheduler to the requested CPU budget so -parallel 1 restores
	// a fully serial process even for code that sizes itself off GOMAXPROCS.
	if *parallelN < runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(*parallelN)
	}

	want, err := selectExperiments(*expList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exptab:", err)
		os.Exit(1)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateSeed(set["seed"], *faults, want); err != nil {
		fmt.Fprintln(os.Stderr, "exptab:", err)
		os.Exit(1)
	}
	if (*specPath != "" || *replayPath != "") && !want["workload"] {
		fmt.Fprintln(os.Stderr, "exptab: -spec/-replay only drive -exp workload")
		os.Exit(1)
	}
	var events []workload.Event
	if want["workload"] {
		var err error
		if events, err = workload.LoadEvents(*specPath, *replayPath); err != nil {
			fmt.Fprintln(os.Stderr, "exptab:", err)
			os.Exit(1)
		}
	}

	cfg := sim.DefaultConfig()
	cfg.Policy = *policy
	if *ioCache > 0 {
		cfg.IOCacheBlocks = *ioCache
	}
	if *stCache > 0 {
		cfg.StorageCacheBlocks = *stCache
	}
	if *blockSize > 0 {
		cfg.BlockElems = *blockSize
	}
	cfg.FaultIntensity = *faults
	cfg.FaultSeed = *seed
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exptab:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "exptab:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "exptab:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "exptab:", err)
			}
			f.Close()
		}()
	}

	runner := exp.NewRunner()
	runner.Verbose = *verbose
	runner.Parallel = *parallelN
	runner.CollectMetrics = *metricsOut != ""

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	total := time.Now()
	for _, name := range order {
		if !want[name] {
			continue
		}
		start := time.Now()
		if name == "table1" {
			fmt.Println(exp.Table1(cfg))
			continue
		}
		build := builders[name]
		if name == "workload" {
			build = func(ctx context.Context, r *exp.Runner, cfg sim.Config) (*exp.Table, error) {
				return exp.WorkloadSweep(ctx, r, cfg, events)
			}
		}
		t, err := build(ctx, runner, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		if *verbose {
			fmt.Printf("[%s took %v with %d workers]\n\n", name, time.Since(start).Round(time.Millisecond), *parallelN)
		}
	}
	if *verbose {
		fmt.Printf("[all requested experiments took %v]\n", time.Since(total).Round(time.Millisecond))
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exptab:", err)
			os.Exit(1)
		}
		werr := runner.WriteMetricsJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "exptab:", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %d cell snapshots to %s\n", runner.MetricCells(), *metricsOut)
	}
}
