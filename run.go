package flopt

import (
	"context"

	"flopt/internal/lang"
	"flopt/internal/layout"
	"flopt/internal/obs"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/trace"
)

// Typed sentinel errors. Every compilation error returned by Compile
// wraps ErrBadProgram; every configuration error returned by the Run
// family wraps ErrBadConfig. Match with errors.Is.
var (
	ErrBadProgram = lang.ErrBadProgram
	ErrBadConfig  = sim.ErrBadConfig
)

// Observer is the pluggable profiling hook surface of the simulator: it
// receives every block access (with the layer that served it and its
// latency), every device read, every degraded-mode retry wait, and the
// structured event stream. See internal/obs for the contract; obs.Nop is
// the no-op default.
type Observer = obs.Observer

// Metrics is the observability snapshot of one run: per-layer hit
// breakdowns overall, per array and per thread; per-storage-node device
// metrics; latency histograms; and the event summary. Report.Metrics
// carries one when metrics collection is enabled.
type Metrics = obs.Snapshot

// LayerBreakdown is one per-layer service breakdown within a Metrics
// snapshot (overall, per array, or per thread).
type LayerBreakdown = obs.LayerBreakdown

// CacheNodeStats is the per-cache-instance counter set within a Metrics
// snapshot.
type CacheNodeStats = obs.CacheNodeStats

// EventKind classifies the simulator's structured events.
type EventKind = obs.Kind

// Histogram names in Metrics.LatencyUS.
const (
	HistRequestLatency = obs.HistRequestLatency
	HistDiskService    = obs.HistDiskService
	HistRetryWait      = obs.HistRetryWait
)

// RunOption configures a Run call; see WithLayouts, WithResult and
// WithObserver.
type RunOption func(*runOptions)

type runOptions struct {
	layouts  map[string]Layout
	res      *Result
	observer Observer
}

// WithLayouts simulates under an arbitrary layout per array (keyed by
// array name). It takes precedence over the layouts carried by
// WithResult; without either, the default row-major layouts are used.
func WithLayouts(layouts map[string]Layout) RunOption {
	return func(o *runOptions) { o.layouts = layouts }
}

// WithResult simulates the optimizer's output: res's layouts (unless
// WithLayouts overrides them) and its parallelization plans. A nil res is
// ignored.
func WithResult(res *Result) RunOption {
	return func(o *runOptions) { o.res = res }
}

// WithObserver attaches o to the simulated machine for the duration of
// the run. The observer is driven serially by the machine's virtual
// clock, so it needs no locking and sees a deterministic stream.
func WithObserver(o Observer) RunOption {
	return func(opts *runOptions) { opts.observer = o }
}

// Run simulates program p on the platform described by cfg and returns
// the execution report. By default it is the paper's "default execution":
// row-major layouts, fresh parallelization plans, no fault injection, no
// metrics. Options select the optimized layouts (WithResult), arbitrary
// layouts (WithLayouts) and a profiling hook (WithObserver); cfg.Metrics
// puts a metrics snapshot on Report.Metrics, and cfg.FaultIntensity with
// cfg.FaultSeed injects deterministic faults. For cfg.Policy == "karma"
// the KARMA hints are generated automatically from the traces.
//
// ctx cancels a run in flight: the simulator polls it periodically and
// aborts with an error wrapping ctx.Err(). Configuration errors wrap
// ErrBadConfig.
func Run(ctx context.Context, p *Program, cfg Config, opts ...RunOption) (*Report, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	layouts := o.layouts
	if layouts == nil && o.res != nil {
		layouts = o.res.Layouts
	}
	if layouts == nil {
		layouts = layout.DefaultLayouts(p)
	}
	var plans map[*poly.LoopNest]*parallel.Plan
	var err error
	if o.res != nil {
		plans = o.res.Plans
	} else if plans, err = parallel.DefaultPlans(p, cfg.Threads()); err != nil {
		return nil, err
	}

	ft, err := trace.NewFileTable(p, layouts)
	if err != nil {
		return nil, err
	}
	traces, err := trace.Generate(p, plans, ft, cfg.BlockElems, cfg.Threads())
	if err != nil {
		return nil, err
	}
	return sim.RunTraces(ctx, cfg, ft, traces, o.observer)
}
