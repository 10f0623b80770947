package exp

import (
	"context"
	"fmt"
	"sort"

	"flopt/internal/sim"
	"flopt/internal/workload"
)

// classTally accumulates one SLO class's share of an event stream.
type classTally struct {
	events, compile, offsets, simulate float64
	// simPrograms counts simulate events per program; the class's modeled
	// execution time is the count-weighted sum of per-program runs.
	simPrograms map[string]float64
}

// WorkloadSweep is the offline analogue of the service load generator: it
// takes the same event stream (a spec expansion or a recorded trace) and
// reports, per SLO class, the request mix plus the modeled execution time
// its simulate events would cost under the default and the optimized file
// layouts. Where the service measures request latency, this measures what
// the layout optimization is worth to each class of traffic.
//
// Each distinct simulated program runs exactly once per scheme regardless
// of how many events name it; results land in index-addressed slots and
// are aggregated in sorted order, so the table is bit-identical at every
// r.Parallel value and for a trace recorded from the same spec.
func WorkloadSweep(ctx context.Context, r *Runner, cfg sim.Config, events []workload.Event) (*Table, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("exp: workload sweep needs at least one event")
	}
	classes := map[string]*classTally{}
	progSet := map[string]bool{}
	for _, ev := range events {
		ct := classes[ev.SLO]
		if ct == nil {
			ct = &classTally{simPrograms: map[string]float64{}}
			classes[ev.SLO] = ct
		}
		ct.events++
		switch ev.Kind {
		case workload.KindCompile:
			ct.compile++
		case workload.KindOffsets:
			ct.offsets++
		case workload.KindSimulate:
			ct.simulate++
			ct.simPrograms[ev.Program]++
			progSet[ev.Program] = true
		default:
			return nil, fmt.Errorf("exp: event %d: unknown kind %q", ev.Seq, ev.Kind)
		}
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	progs := make([]string, 0, len(progSet))
	for p := range progSet {
		progs = append(progs, p)
	}
	sort.Strings(progs)

	// One simulation per (program, scheme); the worker pool fills fixed
	// slots so aggregation order never depends on scheduling.
	execDef := make([]float64, len(progs))
	execOpt := make([]float64, len(progs))
	err := forEachIndex(ctx, r.workers(), 2*len(progs), func(i int) error {
		prog, out, scheme := progs[i/2], execDef, SchemeDefault
		if i%2 == 1 {
			out, scheme = execOpt, SchemeInter
		}
		rep, err := r.RunContext(ctx, prog, cfg, scheme)
		if err != nil {
			return err
		}
		out[i/2] = float64(rep.ExecTimeUS) / 1e6
		return nil
	})
	if err != nil {
		return nil, err
	}
	progIdx := make(map[string]int, len(progs))
	for i, p := range progs {
		progIdx[p] = i
	}

	t := &Table{
		Title: fmt.Sprintf("Workload sweep: %d events, %d SLO classes, %d simulated programs",
			len(events), len(names), len(progs)),
		Columns: []string{"events", "compile", "offsets", "simulate", "sim-s-def", "sim-s-opt", "improv-%"},
		Formats: []string{"%.0f", "%.0f", "%.0f", "%.0f", "%.3f", "%.3f", "%.1f"},
		Note: "rows are SLO classes; sim-s-* sums each class's simulate events' " +
			"modeled exec time under the default vs. optimized layouts",
	}
	for _, name := range names {
		ct := classes[name]
		simProgs := make([]string, 0, len(ct.simPrograms))
		for p := range ct.simPrograms {
			simProgs = append(simProgs, p)
		}
		sort.Strings(simProgs)
		var def, opt float64
		for _, p := range simProgs {
			n := ct.simPrograms[p]
			def += n * execDef[progIdx[p]]
			opt += n * execOpt[progIdx[p]]
		}
		improv := 0.0
		if def > 0 {
			improv = 100 * (def - opt) / def
		}
		t.Rows = append(t.Rows, Row{App: name, Values: []float64{
			ct.events, ct.compile, ct.offsets, ct.simulate, def, opt, improv,
		}})
	}
	return t, nil
}
