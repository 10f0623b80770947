// Package exp is the evaluation harness: it reruns every table and figure
// of the paper's §5 on the simulated platform and renders the same rows
// and series the paper reports. See EXPERIMENTS.md for paper-vs-measured.
package exp

import (
	"context"
	"fmt"
	"sync"

	"flopt/internal/baseline"
	"flopt/internal/layout"
	"flopt/internal/obs"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/storage/cache"
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

// progCall is a singleflight slot for one parsed program: the first
// goroutine to request an app computes it, later ones wait on done.
type progCall struct {
	done chan struct{}
	p    *poly.Program
	err  error
}

// prepCall is a singleflight slot for one preparation. lastUse is the
// runner's recency clock value at the most recent request, driving LRU
// eviction; finished flags that done is closed. refs counts callers that
// obtained the prep and have not yet released it, and evicted marks a call
// removed from the cache whose stream buffers should be recycled into the
// runner's pool once the last user releases it (all guarded by Runner.mu).
type prepCall struct {
	done     chan struct{}
	pr       *prep
	err      error
	lastUse  uint64
	finished bool
	refs     int
	evicted  bool
}

// Runner caches parsed programs and generated traces across experiment
// sweeps (a cache-capacity sweep, for instance, reuses the same traces).
// The prep cache is bounded: traces are large, and an unbounded cache
// would exhaust memory over a long multi-figure run.
//
// A Runner is safe for concurrent use: the caches are singleflight-guarded,
// so two workers preparing the same (app, scheme, platform) key share one
// preparation instead of duplicating it.
type Runner struct {
	mu    sync.Mutex
	progs map[string]*progCall
	preps map[prepKey]*prepCall
	seq   uint64 // recency clock for LRU eviction
	// pool recycles per-thread Access stream buffers across preparations:
	// an evicted prep's streams return to the pool (once unreferenced) and
	// the next trace generation draws from it instead of allocating.
	pool trace.BufferPool

	// Parallel bounds the worker pool used by the table builders and by
	// trace generation; 0 means runtime.GOMAXPROCS(0), 1 restores the
	// fully serial path.
	Parallel int
	// Verbose enables progress lines on stdout.
	Verbose bool
	// CollectMetrics attaches the simulator's metrics collector to every
	// cell; snapshots are recorded per cell key (see WriteMetricsJSONL).
	CollectMetrics bool

	// cells holds the per-cell metric snapshots, keyed deterministically
	// (guarded by mu).
	cells map[string]*obs.Snapshot
}

// maxPreps bounds the trace cache; beyond it the least recently used
// completed preparation is evicted (sweeps touch preparations in clusters,
// so mid-sweep reuse survives while cross-sweep buildup does not).
const maxPreps = 40

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{progs: map[string]*progCall{}, preps: map[prepKey]*prepCall{}}
}

func (r *Runner) program(app string) (*poly.Program, error) {
	r.mu.Lock()
	if c, ok := r.progs[app]; ok {
		r.mu.Unlock()
		<-c.done
		return c.p, c.err
	}
	c := &progCall{done: make(chan struct{})}
	r.progs[app] = c
	r.mu.Unlock()

	c.p, c.err = loadProgram(app)
	close(c.done)
	return c.p, c.err
}

func loadProgram(app string) (*poly.Program, error) {
	w, ok := workloads.ByName(app)
	if !ok {
		return nil, fmt.Errorf("exp: unknown workload %q", app)
	}
	return w.Program()
}

// defaultPlans builds the standard parallelization of p for cfg.
func defaultPlans(p *poly.Program, cfg sim.Config) (map[*poly.LoopNest]*parallel.Plan, error) {
	plans := make(map[*poly.LoopNest]*parallel.Plan, len(p.Nests))
	for _, n := range p.Nests {
		plan, err := parallel.NewPlan(n, cfg.Threads(), 1)
		if err != nil {
			return nil, err
		}
		plans[n] = plan
	}
	return plans, nil
}

// evictLocked makes room for one more preparation by dropping the least
// recently used completed entries. In-flight preparations are never evicted
// (waiters deduplicate against them); if all entries are in flight the
// cache temporarily overflows instead. An evicted prep's stream buffers are
// recycled into the pool immediately when unreferenced, else deferred to
// the last release. Caller holds r.mu.
func (r *Runner) evictLocked() {
	for len(r.preps) >= maxPreps {
		var victim prepKey
		var victimCall *prepCall
		for k, c := range r.preps {
			if !c.finished {
				continue
			}
			if victimCall == nil || c.lastUse < victimCall.lastUse {
				victim, victimCall = k, c
			}
		}
		if victimCall == nil {
			return
		}
		delete(r.preps, victim)
		victimCall.evicted = true
		if victimCall.refs == 0 {
			r.recycleLocked(victimCall)
		}
	}
}

// recycleLocked returns c's stream buffers to the pool. Caller holds r.mu
// and guarantees c is evicted with no remaining references.
func (r *Runner) recycleLocked(c *prepCall) {
	if c.pr != nil {
		r.pool.Put(c.pr.traces)
		c.pr = nil
	}
}

// release drops one reference to c, recycling its buffers if it was the
// last reference to an evicted prep.
func (r *Runner) release(c *prepCall) {
	r.mu.Lock()
	c.refs--
	if c.refs == 0 && c.evicted {
		r.recycleLocked(c)
	}
	r.mu.Unlock()
}

// prepare resolves layouts and traces for (app, cfg, scheme), caching the
// result with singleflight semantics and LRU-bounded capacity. The caller
// must invoke the returned release function once it no longer reads the
// prep's traces; a prep is only recycled after eviction AND release of
// every reference, so in-flight simulations never lose their streams.
func (r *Runner) prepare(app string, cfg sim.Config, scheme Scheme) (*prep, func(), error) {
	key := keyFor(app, cfg, scheme)
	r.mu.Lock()
	r.seq++
	if c, ok := r.preps[key]; ok {
		c.lastUse = r.seq
		c.refs++
		r.mu.Unlock()
		<-c.done
		if c.err != nil {
			r.release(c)
			return nil, nil, c.err
		}
		return c.pr, func() { r.release(c) }, nil
	}
	c := &prepCall{done: make(chan struct{}), lastUse: r.seq, refs: 1}
	r.evictLocked()
	r.preps[key] = c
	r.mu.Unlock()

	c.pr, c.err = r.buildPrep(app, cfg, scheme)

	r.mu.Lock()
	c.finished = true
	if c.err != nil {
		// Failed preparations are not worth a cache slot; the error is
		// still delivered to every waiter through the call itself.
		if r.preps[key] == c {
			delete(r.preps, key)
		}
		c.evicted = true
		c.refs--
	}
	r.mu.Unlock()
	close(c.done)
	if c.err != nil {
		return nil, nil, c.err
	}
	return c.pr, func() { r.release(c) }, nil
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
		if plans, err = defaultPlans(p, cfg); err != nil {
			return nil, err
		}
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
		if plans, err = defaultPlans(p, cfg); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("exp: unknown scheme %q", scheme)
	}

	pr.ft, err = trace.NewFileTable(p, layouts)
	if err != nil {
		return nil, err
	}
	pr.traces, err = trace.GenerateWorkersPool(p, plans, pr.ft, cfg.BlockElems, cfg.Threads(), r.workers(), &r.pool)
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

// cachedPreps returns the number of resident preparations (tests only).
func (r *Runner) cachedPreps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.preps)
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
	pr, release, err := r.prepare(app, cfg, scheme)
	if err != nil {
		return nil, err
	}
	defer release()
	if scheme == SchemeCompMap {
		cfg.Mapping = pr.mapping
	}
	if r.CollectMetrics {
		cfg.Metrics = true
	}
	var hints []cache.RangeHint
	if cfg.Policy == "karma" {
		hints = sim.GenerateHints(cfg, pr.ft, pr.traces)
	}
	machine, err := sim.NewMachine(cfg, hints)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", app, scheme, err)
	}
	fileBlocks := make([]int64, len(pr.ft.Names))
	for f := range fileBlocks {
		fileBlocks[f] = pr.ft.Blocks(int32(f), cfg.BlockElems)
	}
	machine.SetFileBlocks(fileBlocks)
	machine.SetFileNames(pr.ft.Names)
	rep, err := machine.RunContext(ctx, pr.traces)
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
	pr, release, err := r.prepare(app, cfg, SchemeInter)
	if err != nil {
		return nil, err
	}
	// Only the optimizer result escapes; recycling touches pr.traces alone.
	release()
	return pr.optRes, nil
}
