package flopt

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each benchmark regenerates its table on the
// simulated platform and reports the headline aggregate as a custom
// metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The reported metrics:
//
//	avg_norm_exec — mean normalized execution time (Fig 7a/f/g/h columns)
//	avg_improv_%  — mean improvement percentage (Fig 7c/d/e sweeps)
//	*_miss_%      — mean miss rates (Table 2) / normalized misses (Table 3)
//
// See EXPERIMENTS.md for the paper-vs-measured comparison of every row.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"flopt/internal/exp"
	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/trace"
)

// benchRunner is shared across benchmarks so trace/layout preparation is
// reused between related experiments (exactly like exptab -exp all).
var (
	benchRunnerOnce sync.Once
	benchRunner     *exp.Runner
)

func runner() *exp.Runner {
	benchRunnerOnce.Do(func() { benchRunner = exp.NewRunner() })
	return benchRunner
}

func benchTable(b *testing.B, fn func(context.Context, *exp.Runner, sim.Config) (*exp.Table, error), metrics func(*exp.Table, *testing.B)) {
	b.Helper()
	cfg := sim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := fn(context.Background(), runner(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			metrics(t, b)
		}
	}
}

// reportAverages reports every aggregate column of the table.
func reportAverages(unit string) func(*exp.Table, *testing.B) {
	return func(t *exp.Table, b *testing.B) {
		for c := range t.Columns {
			// testing.B metric units must not contain whitespace.
			name := strings.ReplaceAll(t.Columns[c], " ", "-") + "_" + unit
			b.ReportMetric(t.ColumnAverage(c), name)
		}
	}
}

// BenchmarkTable2Default regenerates Table 2: the default execution of all
// 16 applications (miss rates and execution times).
func BenchmarkTable2Default(b *testing.B) {
	benchTable(b, exp.Table2, reportAverages("avg"))
}

// BenchmarkTable3Optimized regenerates Table 3: normalized cache misses
// after the inter-node optimization.
func BenchmarkTable3Optimized(b *testing.B) {
	benchTable(b, exp.Table3, reportAverages("norm_miss"))
}

// BenchmarkFig7aPerApp regenerates Fig 7(a): normalized execution times.
// The paper's headline: average 0.763 (23.7 % improvement).
func BenchmarkFig7aPerApp(b *testing.B) {
	benchTable(b, exp.Fig7a, reportAverages("norm_exec"))
}

// BenchmarkFig7bMappings regenerates Fig 7(b): thread mappings I–IV.
func BenchmarkFig7bMappings(b *testing.B) {
	benchTable(b, exp.Fig7b, reportAverages("norm_exec"))
}

// BenchmarkFig7cCapacity regenerates Fig 7(c): cache-capacity sweep.
func BenchmarkFig7cCapacity(b *testing.B) {
	benchTable(b, exp.Fig7c, reportAverages("improv_%"))
}

// BenchmarkFig7dNodes regenerates Fig 7(d): node-count sweep.
func BenchmarkFig7dNodes(b *testing.B) {
	benchTable(b, exp.Fig7d, reportAverages("improv_%"))
}

// BenchmarkFig7eBlock regenerates Fig 7(e): block-size sweep.
func BenchmarkFig7eBlock(b *testing.B) {
	benchTable(b, exp.Fig7e, reportAverages("improv_%"))
}

// BenchmarkFig7fLayers regenerates Fig 7(f): targeted-layer comparison.
// Paper averages: io-only 9.1 %, storage-only 13.0 %, both 23.7 %.
func BenchmarkFig7fLayers(b *testing.B) {
	benchTable(b, exp.Fig7f, reportAverages("norm_exec"))
}

// BenchmarkFig7gBaselines regenerates Fig 7(g): computation mapping [26]
// and dimension reindexing [27] vs the inter-node optimization. Paper
// averages: 7.6 %, 7.1 %, 23.7 % improvements.
func BenchmarkFig7gBaselines(b *testing.B) {
	benchTable(b, exp.Fig7g, reportAverages("norm_exec"))
}

// BenchmarkFig7hPolicies regenerates Fig 7(h): the optimization under
// LRU, KARMA and DEMOTE-LRU. Paper averages: 23.7 %, 30.1 %, 28.6 %.
func BenchmarkFig7hPolicies(b *testing.B) {
	benchTable(b, exp.Fig7h, reportAverages("norm_exec"))
}

// BenchmarkOptStats regenerates the §5.1 static statistic: the fraction of
// arrays receiving optimized layouts (paper: ≈ 72 %).
func BenchmarkOptStats(b *testing.B) {
	benchTable(b, exp.OptStats, func(t *exp.Table, b *testing.B) {
		b.ReportMetric(100*t.ColumnAverage(2), "optimized_%")
	})
}

// BenchmarkCompilePass measures the pure compile-time cost of the
// optimization pass (parse + Step I + Step II) across all 16 workloads —
// the paper reports a ~36 % compilation-time overhead, up to 50 s.
func BenchmarkCompilePass(b *testing.B) {
	cfg := sim.DefaultConfig()
	ws := Workloads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			p, err := Compile(w.Name, w.Source)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Optimize(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (block
// requests per second) on one mid-size workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := WorkloadByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	var accesses int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		accesses = rep.Accesses
	}
	b.ReportMetric(float64(accesses), "requests/run")
}

// BenchmarkTraceGeneration measures trace generation alone (no simulation)
// on the swim workload: the closed-form span emitter produces each stream
// in O(blocks touched) rather than O(iterations). entries/run is the
// stream length, one entry per block transaction, and bytes/run the
// memory those entries hold. The inter
// sub-benchmark is faster than default because the optimized layout makes
// each thread's sweep contiguous: 64 iterations share a block, so the
// emitter takes one step where the default layout's scattered scan takes
// one per iteration.
func BenchmarkTraceGeneration(b *testing.B) {
	w, err := WorkloadByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	bench := func(b *testing.B, layouts map[string]layout.Layout, plans map[*poly.LoopNest]*parallel.Plan) {
		ft, err := trace.NewFileTable(p, layouts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var entries int64
		for i := 0; i < b.N; i++ {
			traces, err := trace.GenerateWorkers(p, plans, ft, cfg.BlockElems, cfg.Threads(), 1)
			if err != nil {
				b.Fatal(err)
			}
			entries = 0
			for _, nt := range traces {
				entries += nt.TotalAccesses()
			}
		}
		b.ReportMetric(float64(entries), "entries/run")
		b.ReportMetric(float64(entries)*float64(unsafe.Sizeof(trace.Access{})), "bytes/run")
	}
	b.Run("default", func(b *testing.B) {
		plans := make(map[*poly.LoopNest]*parallel.Plan, len(p.Nests))
		for _, n := range p.Nests {
			plan, err := parallel.NewPlan(n, cfg.Threads(), 1)
			if err != nil {
				b.Fatal(err)
			}
			plans[n] = plan
		}
		bench(b, layout.DefaultLayouts(p), plans)
	})
	b.Run("inter", func(b *testing.B) {
		h, err := cfg.LayoutHierarchy(true, true)
		if err != nil {
			b.Fatal(err)
		}
		res, err := layout.Optimize(p, layout.Options{Hierarchy: h, BlockElems: cfg.BlockElems})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, res.Layouts, res.Plans)
	})
}

// BenchmarkSimulatorThroughputMetrics is BenchmarkSimulatorThroughput with
// the metrics collector attached; the delta between the two is the
// observability overhead bench_harness.sh tracks (budget: ≤ a few percent).
func BenchmarkSimulatorThroughputMetrics(b *testing.B) {
	w, err := WorkloadByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	var accesses int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), p, cfg, WithMetrics())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Metrics == nil {
			b.Fatal("metrics not collected")
		}
		accesses = rep.Accesses
	}
	b.ReportMetric(float64(accesses), "requests/run")
}
