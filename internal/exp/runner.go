// Package exp is the evaluation harness: it reruns every table and figure
// of the paper's §5 on the simulated platform and renders the same rows
// and series the paper reports. See EXPERIMENTS.md for paper-vs-measured.
package exp

import (
	"context"
	"fmt"
	"sync"
	"unsafe"

	"flopt/internal/baseline"
	"flopt/internal/layout"
	"flopt/internal/memo"
	"flopt/internal/obs"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/trace"
	"flopt/internal/workloads"
)

// Scheme selects how file layouts (and, for the computation-mapping
// baseline, thread placement) are chosen.
type Scheme string

const (
	// SchemeDefault: row-major files, identity thread mapping — the
	// paper's "default execution".
	SchemeDefault Scheme = "default"
	// SchemeInter: the paper's inter-node file layout optimization
	// targeting both cache layers.
	SchemeInter Scheme = "inter"
	// SchemeInterIO / SchemeInterStorage: single-layer targeting
	// (Fig. 7(f)).
	SchemeInterIO      Scheme = "inter-io"
	SchemeInterStorage Scheme = "inter-storage"
	// SchemeReindex: the dimension-reindexing baseline [27].
	SchemeReindex Scheme = "reindex"
	// SchemeCompMap: the computation-mapping baseline [26] (row-major
	// files, sharing-clustered thread placement).
	SchemeCompMap Scheme = "compmap"
	// SchemeInterUnweighted / SchemeInterFlat: ablations of the two design
	// choices DESIGN.md calls out — Eq. 5 weighted conflict resolution and
	// the hierarchy-aware Step II pattern.
	SchemeInterUnweighted Scheme = "inter-unweighted"
	SchemeInterFlat       Scheme = "inter-flat"
)

// Schemes lists all selectable schemes.
func Schemes() []Scheme {
	return []Scheme{SchemeDefault, SchemeInter, SchemeInterIO, SchemeInterStorage,
		SchemeReindex, SchemeCompMap, SchemeInterUnweighted, SchemeInterFlat}
}

// prepKey identifies a cached preparation (layout choice + traces).
type prepKey struct {
	app     string
	scheme  Scheme
	block   int64
	compute int
	tpc     int
	io      int
	storage int
	capIO   int
	capST   int
}

func keyFor(app string, cfg sim.Config, scheme Scheme) prepKey {
	k := prepKey{
		app: app, scheme: scheme, block: cfg.BlockElems,
		compute: cfg.ComputeNodes, tpc: cfg.ThreadsPerCompute,
		io: cfg.IONodes, storage: cfg.StorageNodes,
	}
	// Layout choice depends on cache capacities only for the schemes that
	// consult them; keying on them always would just reduce reuse.
	switch scheme {
	case SchemeInter, SchemeInterIO, SchemeInterStorage, SchemeReindex,
		SchemeInterUnweighted, SchemeInterFlat:
		k.capIO, k.capST = cfg.IOCacheBlocks, cfg.StorageCacheBlocks
	}
	return k
}

// prep bundles everything needed to simulate one (app, scheme, platform).
type prep struct {
	ft      *trace.FileTable
	traces  []*trace.NestTrace
	mapping *parallel.Mapping // only for SchemeCompMap
	optRes  *layout.Result    // only for inter schemes
}

// Runner caches parsed programs and generated traces across experiment
// sweeps (a cache-capacity sweep, for instance, reuses the same traces).
// The prep cache is bounded by the bytes of its trace streams: traces
// are large, and an unbounded cache would exhaust memory over a long
// multi-figure run.
//
// A Runner is safe for concurrent use: both caches are memo.Cache
// singleflights, so two workers preparing the same (app, scheme,
// platform) key share one preparation instead of duplicating it. An
// evicted preparation only leaves the cache; a simulation still reading
// its traces keeps them alive.
type Runner struct {
	progs *memo.Cache[string, *poly.Program]
	preps *memo.Cache[prepKey, *prep]

	// Parallel bounds the worker pool used by the table builders and by
	// trace generation; 0 means runtime.GOMAXPROCS(0), 1 restores the
	// fully serial path.
	Parallel int
	// Verbose enables progress lines on stdout.
	Verbose bool

	// cells holds the metric snapshot of every cell run with cfg.Metrics
	// set, keyed deterministically (guarded by mu; see
	// WriteMetricsJSONL).
	mu    sync.Mutex
	cells map[string]*obs.Snapshot
}

// prepBudget bounds the trace bytes the prep cache keeps; beyond it the
// least recently used completed preparations are evicted (sweeps touch
// preparations in clusters, so mid-sweep reuse survives while
// cross-sweep buildup does not). Table 2 and Fig. 7(a) together hold
// about 415 MB of streams, well inside it.
const prepBudget = 1 << 30

// NewRunner returns an empty runner.
func NewRunner() *Runner { return newRunner(prepBudget) }

// newRunner returns an empty runner whose prep cache keeps at most
// budget bytes of trace streams.
func newRunner(budget int) *Runner {
	return &Runner{
		progs: memo.New[string, *poly.Program](0, nil, nil),
		preps: memo.New[prepKey, *prep](budget, (*prep).bytes, nil),
	}
}

// bytes is the memory of the prep's trace streams, its weight in the
// prep cache.
func (pr *prep) bytes() int {
	var n int64
	for _, nt := range pr.traces {
		n += nt.TotalAccesses()
	}
	return int(n) * int(unsafe.Sizeof(trace.Access{}))
}

func (r *Runner) program(app string) (*poly.Program, error) {
	p, _, err := r.progs.Get(context.Background(), app, func() (*poly.Program, error) {
		w, ok := workloads.ByName(app)
		if !ok {
			return nil, fmt.Errorf("exp: unknown workload %q", app)
		}
		return w.Program()
	})
	return p, err
}

// prepare resolves layouts and traces for (app, cfg, scheme), built once
// per key and kept in the bounded prep cache.
func (r *Runner) prepare(app string, cfg sim.Config, scheme Scheme) (*prep, error) {
	pr, _, err := r.preps.Get(context.Background(), keyFor(app, cfg, scheme), func() (*prep, error) {
		return r.buildPrep(app, cfg, scheme)
	})
	return pr, err
}

// buildPrep does the actual preparation work (layout choice + traces).
func (r *Runner) buildPrep(app string, cfg sim.Config, scheme Scheme) (*prep, error) {
	p, err := r.program(app)
	if err != nil {
		return nil, err
	}
	pr := &prep{}
	var layouts map[string]layout.Layout
	var plans map[*poly.LoopNest]*parallel.Plan

	switch scheme {
	case SchemeDefault, SchemeCompMap:
		layouts = layout.DefaultLayouts(p)
	case SchemeInter, SchemeInterIO, SchemeInterStorage, SchemeInterUnweighted, SchemeInterFlat:
		h, err := cfg.LayoutHierarchy(scheme != SchemeInterStorage, scheme != SchemeInterIO)
		if err != nil {
			return nil, err
		}
		res, err := layout.Optimize(p, layout.Options{
			Hierarchy:     h,
			BlockElems:    cfg.BlockElems,
			UnweightedEq5: scheme == SchemeInterUnweighted,
			FlatPattern:   scheme == SchemeInterFlat,
		})
		if err != nil {
			return nil, err
		}
		layouts, plans = res.Layouts, res.Plans
		pr.optRes = res
	case SchemeReindex:
		if layouts, err = baseline.Reindex(p, cfg); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("exp: unknown scheme %q", scheme)
	}
	if plans == nil {
		if plans, err = parallel.DefaultPlans(p, cfg.Threads()); err != nil {
			return nil, err
		}
	}

	pr.ft, err = trace.NewFileTable(p, layouts)
	if err != nil {
		return nil, err
	}
	pr.traces, err = trace.GenerateWorkers(p, plans, pr.ft, cfg.BlockElems, cfg.Threads(), r.workers())
	if err != nil {
		return nil, err
	}
	if scheme == SchemeCompMap {
		m, err := baseline.ComputationMapping(cfg, pr.traces)
		if err != nil {
			return nil, err
		}
		pr.mapping = &m
	}
	return pr, nil
}

// Run simulates app under cfg with the given scheme and returns the
// report. The cache policy and thread mapping come from cfg (except that
// SchemeCompMap installs its own computed mapping). Run is safe for
// concurrent use; each call simulates on its own Machine.
func (r *Runner) Run(app string, cfg sim.Config, scheme Scheme) (*sim.Report, error) {
	return r.RunContext(context.Background(), app, cfg, scheme)
}

// RunContext is Run with cooperative cancellation: a canceled ctx aborts
// the simulation in flight with an error wrapping ctx.Err().
func (r *Runner) RunContext(ctx context.Context, app string, cfg sim.Config, scheme Scheme) (*sim.Report, error) {
	pr, err := r.prepare(app, cfg, scheme)
	if err != nil {
		return nil, err
	}
	if scheme == SchemeCompMap {
		cfg.Mapping = pr.mapping
	}
	rep, err := sim.RunTraces(ctx, cfg, pr.ft, pr.traces, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", app, scheme, err)
	}
	if rep.Metrics != nil {
		r.recordCell(cellKey(app, cfg, scheme), rep.Metrics)
	}
	if r.Verbose {
		fmt.Printf("  %-9s %-13s policy=%-6s exec=%8.3fs ioMiss=%5.1f%% stMiss=%5.1f%%\n",
			app, scheme, cfg.Policy, float64(rep.ExecTimeUS)/1e6,
			100*rep.IOMissRate(), 100*rep.StorageMissRate())
	}
	return rep, nil
}

// OptResult returns the optimizer output for app under cfg (inter scheme),
// for the static statistics of §5.1.
func (r *Runner) OptResult(app string, cfg sim.Config) (*layout.Result, error) {
	pr, err := r.prepare(app, cfg, SchemeInter)
	if err != nil {
		return nil, err
	}
	return pr.optRes, nil
}
