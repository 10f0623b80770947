// Package flopt is a compiler-directed file layout optimizer for
// hierarchical storage systems — a from-scratch reproduction of Ding,
// Zhang, Kandemir & Son, "Compiler-directed file layout optimization for
// hierarchical storage systems" (SC 2012).
//
// The package bundles three things:
//
//   - A small compiler front end for affine loop-nest programs
//     (Compile), producing the polyhedral representation the optimizer
//     consumes.
//   - The optimizer itself (Optimize): Step I computes a unimodular data
//     transformation per disk-resident array that isolates each thread's
//     elements (Eq. 3/4 of the paper, with Eq. 5 weighted conflict
//     resolution), and Step II linearizes the partitioned arrays with a
//     thread-interleaved, storage-hierarchy-aware layout pattern
//     (Algorithm 1).
//   - A deterministic trace-driven simulator of the paper's evaluation
//     platform (Run): compute nodes, I/O-node and storage-node block
//     caches (LRU-inclusive, KARMA, DEMOTE-LRU), PVFS-style striping,
//     and a seek/rotation disk model, with a pluggable observability
//     layer (Observer, Metrics) explaining per-layer behavior.
//
// A minimal end-to-end use:
//
//	p, _ := flopt.Compile("example", src)
//	cfg := flopt.DefaultConfig()
//	res, _ := flopt.Optimize(p, cfg)
//	before, _ := flopt.Run(ctx, p, cfg)
//	after, _ := flopt.Run(ctx, p, cfg, flopt.WithResult(res))
//	fmt.Printf("%.1f%% faster\n", 100*(1-float64(after.ExecTimeUS)/float64(before.ExecTimeUS)))
//
// Run takes functional options: WithResult simulates the optimizer's
// output, WithLayouts an arbitrary layout per array, WithMetrics attaches
// the metrics collector (snapshot on Report.Metrics), WithObserver a
// custom profiling hook, and WithFaults deterministic fault injection.
//
// The cmd/ directory provides the same functionality as executables
// (floptc, runsim, exptab), and internal/exp regenerates every table and
// figure of the paper's evaluation (see EXPERIMENTS.md).
package flopt

import (
	"fmt"

	"flopt/internal/lang"
	"flopt/internal/layout"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/workloads"
)

// Program is a parsed affine loop-nest program.
type Program = poly.Program

// Config describes the simulated platform (node counts, cache capacities,
// block size, latencies, cache policy).
type Config = sim.Config

// Report summarizes one simulated execution.
type Report = sim.Report

// Result carries the optimizer's output: per-array transforms and layouts
// plus the parallelization plans.
type Result = layout.Result

// Layout maps array elements to linear file offsets.
type Layout = layout.Layout

// Workload is one of the 16 benchmark applications of the evaluation.
type Workload = workloads.Workload

// Compile parses mini-language source into a Program. The language
// declares disk-resident arrays and parallelized affine loop nests; see
// the internal/lang package documentation for the grammar.
func Compile(name, source string) (*Program, error) {
	return lang.Parse(name, source)
}

// DefaultConfig returns the paper's Table 1 platform at the simulator's
// element scale: 64 compute nodes, 16 I/O nodes, 4 storage nodes,
// LRU-inclusive caches at the I/O and storage layers.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Optimize runs the full inter-node file layout optimization of the paper
// against the cache hierarchy described by cfg (both layers targeted).
func Optimize(p *Program, cfg Config) (*Result, error) {
	h, err := cfg.LayoutHierarchy(true, true)
	if err != nil {
		return nil, err
	}
	return layout.Optimize(p, layout.Options{Hierarchy: h, BlockElems: cfg.BlockElems})
}

// Workloads returns the 16 benchmark applications of the paper's Table 2.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName returns one benchmark application by name.
func WorkloadByName(name string) (Workload, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("flopt: unknown workload %q (have %v)", name, workloads.Names())
	}
	return w, nil
}

// Improvement returns the fractional execution-time improvement of after
// over before (e.g. 0.237 for the paper's headline 23.7 %).
func Improvement(before, after *Report) float64 {
	if before.ExecTimeUS == 0 {
		return 0
	}
	return 1 - float64(after.ExecTimeUS)/float64(before.ExecTimeUS)
}
