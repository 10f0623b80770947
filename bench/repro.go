package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"flopt/internal/exp"
	"flopt/internal/sim"
	"flopt/internal/workloads"
)

// The repro workload is the researcher's path: a cold exp.Runner
// (Parallel = nproc) renders the paper's Table 2 and Fig 7(a), and the
// output is diffed against the goldens. Fig 7(a) reuses the default
// traces Table 2 prepared, so exp's prep cache does real work. One
// render set is one operation; a run renders sets back to back.

// reproOrder returns the tables to render, in a seeded order.
func (e *env) reproOrder() []int {
	if e.small {
		return []int{0}
	}
	return e.rng(1).Perm(len(reproTables))
}

// renderTables renders the given tables on a fresh runner, each inside
// an exp.table.<name> span, and checks them against the goldens.
func renderTables(ctx context.Context, e *env, rec *recorder, order []int, o *outcome) error {
	r := exp.NewRunner()
	r.Parallel = e.nproc
	for _, i := range order {
		t := reproTables[i]
		s := rec.begin("exp.table."+t.name, -1, int64(i))
		tab, err := t.build(ctx, r, sim.DefaultConfig())
		rec.end(s)
		if err != nil {
			return fmt.Errorf("repro: %s: %w", t.name, err)
		}
		o.check(e.gold.checkTable(t.name, tab.Render()))
	}
	return nil
}

func reproRun(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	_, setup, err := repeatSetup(func() ([]*program, error) {
		return compileWorkloads(nil, e.programs(), sim.DefaultConfig())
	}, func([]*program) {})
	if err != nil {
		return nil, err
	}
	// One untimed render warms the process; every timed render then starts
	// from a collected heap on a fresh runner, as a new exptab process does.
	order := e.reproOrder()
	if err := renderTables(ctx, e, nil, order, o); err != nil {
		return nil, err
	}
	var lat []float64
	window, err := rounds(e.window, func(int) error {
		runtime.GC()
		t0 := time.Now()
		err := renderTables(ctx, e, nil, order, o)
		lat = append(lat, ms(time.Since(t0)))
		return err
	})
	if err != nil {
		return nil, err
	}
	o.Attempted = int64(len(lat))
	return o, o.endToEnd(setup, lat, window, float64(len(lat))/window.Seconds())
}

// reproTrace times each table builder, then measures exp's overhead over
// the layers. An untraced exp.Table2 on a cold serial runner, run before
// and after the replay with the faster kept, gives Table 2's wall time;
// a serial replay of its 16 cells through the layer functions, with
// spans, gives the layers' self time. Their ratio is exp.coverage, which
// must be at least 0.90, and the replay's wall time over Table 2's is
// the tracing overhead.
func reproTrace(ctx context.Context, e *env) (*outcome, error) {
	o, rec := newOutcome(), e.rec
	var pl layerCounts
	progs, err := compileWorkloads(rec, e.programs(), sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pl.addCompiled(progs...)
	if err := renderTables(ctx, e, rec, e.reproOrder(), o); err != nil {
		return nil, err
	}

	// Every serial Table 2 and the replay start from a collected heap, so
	// none pays for another's garbage.
	serialTable2 := func() (time.Duration, error) {
		runtime.GC()
		r := exp.NewRunner()
		r.Parallel = 1
		t0 := time.Now()
		tab, err := exp.Table2(ctx, r, sim.DefaultConfig())
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		o.check(e.gold.checkTable("table2", tab.Render()))
		return d, nil
	}
	wall, err := serialTable2()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	// The cells' inputs stay live until the replay ends, as exp's runner
	// keeps every cell's traces, so the garbage collector sees the same
	// heap in both.
	var live []*simInputs
	first := len(rec.spans)
	root := rec.begin("exp.table2_replay", -1, 0)
	for i, app := range exp.Apps() {
		req := int64(i)
		cell := rec.begin("exp.cell", root, req)
		w, _ := workloads.ByName(app)
		s := rec.begin("lang.parse", cell, req)
		p, err := w.Program()
		rec.end(s)
		if err != nil {
			return nil, err
		}
		c := simCall{prog: &program{name: app, p: p}, policy: "lru"}
		in, err := c.prepare(rec, cell, req, 1)
		if err != nil {
			return nil, err
		}
		rep, err := pl.simulate(ctx, rec, cell, req, in, c.policy, 1)
		if err != nil {
			return nil, err
		}
		rec.end(cell)
		pl.addTrace(in)
		live = append(live, in)
		o.check(e.gold.checkReport(c.key(), rep))
	}
	rec.end(root)
	runtime.KeepAlive(live)

	again, err := serialTable2()
	if err != nil {
		return nil, err
	}
	wall = min(wall, again)
	covered := rec.selfSince(first, "lang.parse", "parallel.plan", "trace.generate", "sim.run")
	pl.traced, pl.untraced = rec.duration(root), wall
	pl.expCoverage = covered.Seconds() / wall.Seconds()
	pl.expSelfS = (wall - covered).Seconds()
	if pl.expCoverage < 0.90 {
		o.wrong("exp.coverage %.3f < 0.90: the layer spans account for %.3fs of Table 2's %.3fs", pl.expCoverage, covered.Seconds(), wall.Seconds())
	}
	o.Attempted = int64(3 + len(exp.Apps()))
	o.perLayer(rec, &pl)
	return o, nil
}
