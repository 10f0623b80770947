package main

import (
	"context"
	"fmt"

	"flopt"
	"flopt/internal/lang"
	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/service/api"
	"flopt/internal/sim"
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
	"flopt/internal/workloads"
)

// The functions here call the program's layers one public function at a
// time, with a span around each call, so a traced replay can say where
// the time of flopt.Compile, flopt.Optimize and flopt.Run goes. With a
// nil recorder they do the same work untimed.

// program is one workload program compiled for one platform.
type program struct {
	name string
	p    *poly.Program
	res  *layout.Result
}

// compileProgram parses and optimizes source for cfg, as flopt.Compile
// and flopt.Optimize do. A traced call then replays the layer functions
// Optimize calls inside — parallel.NewPlan per nest, layout.SolveTransform
// per array and layout.NewPattern for the platform — so each shows its
// own cost; those replays are spans of their own, outside "compile".
func compileProgram(rec *recorder, parent int, req int64, name, source string, cfg sim.Config) (*program, error) {
	root := rec.begin("compile", parent, req)
	s := rec.begin("lang.parse", root, req)
	p, err := lang.Parse(name, source)
	rec.end(s)
	if err != nil {
		rec.end(root)
		return nil, err
	}
	s = rec.begin("layout.optimize", root, req)
	res, err := flopt.Optimize(p, cfg)
	rec.end(s)
	rec.end(root)
	if err != nil {
		return nil, fmt.Errorf("optimize %s: %w", name, err)
	}
	if rec == nil {
		return &program{name: name, p: p, res: res}, nil
	}
	plans := make(map[*poly.LoopNest]*parallel.Plan, len(p.Nests))
	for _, n := range p.Nests {
		s = rec.begin("parallel.plan", parent, req)
		plan, err := parallel.NewPlan(n, cfg.Threads(), 1)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		plans[n] = plan
	}
	for _, a := range p.Arrays {
		s = rec.begin("layout.solve_transform", parent, req)
		_, err := layout.SolveTransform(p, a, plans)
		rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	h, err := cfg.LayoutHierarchy(true, true)
	if err != nil {
		return nil, err
	}
	s = rec.begin("layout.pattern", parent, req)
	_, err = layout.NewPattern(h, cfg.BlockElems)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	return &program{name: name, p: p, res: res}, nil
}

// compileWorkloads compiles the named built-in programs for cfg.
func compileWorkloads(rec *recorder, names []string, cfg sim.Config) ([]*program, error) {
	out := make([]*program, 0, len(names))
	for i, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		pr, err := compileProgram(rec, -1, int64(i), name, w.Source, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// compareCompile checks a daemon's compile response against a local
// compile of the same program for the same platform.
func compareCompile(resp *api.CompileResponse, pr *program) error {
	opt, total := pr.res.OptimizedCount()
	if resp.Optimized != opt || resp.TotalArrays != total {
		return fmt.Errorf("compile %s: %d of %d arrays optimized, local compile %d of %d",
			pr.name, resp.Optimized, resp.TotalArrays, opt, total)
	}
	for name, info := range resp.Arrays {
		if l := pr.res.Layouts[name]; l == nil || l.Name() != info.Layout || l.SizeElems() != info.FileElems {
			return fmt.Errorf("compile %s: array %s has layout %s (%d elems), local compile differs",
				pr.name, name, info.Layout, info.FileElems)
		}
	}
	return nil
}

// simCall is one simulation: a program under its default (row-major)
// or optimized layouts and one cache policy.
type simCall struct {
	prog   *program
	opt    bool
	policy string
}

func (c simCall) key() simKey {
	scheme := "default"
	if c.opt {
		scheme = "optimized"
	}
	return simKey{Program: c.prog.name, Scheme: scheme, Policy: c.policy}
}

// run is the call as a library user makes it: flopt.Run with default
// options.
func (c simCall) run(ctx context.Context) (*sim.Report, error) {
	cfg := flopt.DefaultConfig()
	cfg.Policy = c.policy
	var opts []flopt.RunOption
	if c.opt {
		opts = append(opts, flopt.WithResult(c.prog.res))
	}
	return flopt.Run(ctx, c.prog.p, cfg, opts...)
}

// simInputs is everything one simulation consumes, kept so a traced run
// can simulate the same traces again at another shard count.
type simInputs struct {
	cfg    sim.Config
	ft     *trace.FileTable
	traces []*trace.NestTrace
	hints  []cache.RangeHint
}

// prepare performs flopt.Run's steps before the simulation proper:
// default plans (default layouts only), the file table and traces on
// the given number of generation workers, and KARMA hints.
func (c simCall) prepare(rec *recorder, parent int, req int64, workers int) (*simInputs, error) {
	in := &simInputs{cfg: flopt.DefaultConfig()}
	in.cfg.Policy = c.policy
	var layouts map[string]layout.Layout
	var plans map[*poly.LoopNest]*parallel.Plan
	if c.opt {
		layouts, plans = c.prog.res.Layouts, c.prog.res.Plans
	} else {
		layouts = layout.DefaultLayouts(c.prog.p)
		plans = make(map[*poly.LoopNest]*parallel.Plan, len(c.prog.p.Nests))
		s := rec.begin("parallel.plan", parent, req)
		for _, n := range c.prog.p.Nests {
			plan, err := parallel.NewPlan(n, in.cfg.Threads(), 1)
			if err != nil {
				rec.end(s)
				return nil, err
			}
			plans[n] = plan
		}
		rec.end(s)
	}
	s := rec.begin("trace.generate", parent, req)
	ft, err := trace.NewFileTable(c.prog.p, layouts)
	if err == nil {
		in.ft = ft
		in.traces, err = trace.GenerateWorkers(c.prog.p, plans, ft, in.cfg.BlockElems, in.cfg.Threads(), workers)
	}
	rec.end(s)
	if err != nil {
		return nil, err
	}
	if c.policy == "karma" {
		s = rec.begin("sim.hints", parent, req)
		in.hints = sim.GenerateHints(in.cfg, in.ft, in.traces)
		rec.end(s)
	}
	return in, nil
}

// simulate builds the machine and runs the traces with the given shard
// count (flopt.Run uses GOMAXPROCS; 1 is the serial engine).
func (in *simInputs) simulate(ctx context.Context, workers int) (*sim.Report, error) {
	m, err := sim.NewMachine(in.cfg, in.hints)
	if err != nil {
		return nil, err
	}
	blocks := make([]int64, len(in.ft.Names))
	for f := range blocks {
		blocks[f] = in.ft.Blocks(int32(f), in.cfg.BlockElems)
	}
	m.SetFileBlocks(blocks)
	m.SetFileNames(in.ft.Names)
	m.SetWorkers(workers)
	return m.RunContext(ctx, in.traces)
}

// entries returns the number of compressed trace entries and the blocks
// they stand for.
func (in *simInputs) entries() (entries, blocks int64) {
	for _, nt := range in.traces {
		for _, s := range nt.Streams {
			entries += int64(len(s))
			for _, a := range s {
				blocks += int64(a.Run) + 1
			}
		}
	}
	return entries, blocks
}
