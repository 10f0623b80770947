package main

import (
	"context"
	"time"

	"flopt/internal/sim"
)

// layerCounts is what a traced run counts at the layer boundaries,
// beside the span times the recorder keeps.
type layerCounts struct {
	optimized, arrays     int   // arrays compiled, and how many got optimized layouts
	queries, segs, walked int64 // offset queries replayed, segments returned, queries walked per element
	entries, blocks       int64 // trace entries generated and the blocks they stand for
	accesses              int64 // block accesses simulated inside sim.run spans
	counters              map[string]float64
	queueMax              int
	loop                  *loopResult // the open-loop phase of a traced service run
	traced, untraced      time.Duration
	expCoverage, expSelfS float64
}

func (pl *layerCounts) addCompiled(progs ...*program) {
	for _, pr := range progs {
		opt, total := pr.res.OptimizedCount()
		pl.optimized += opt
		pl.arrays += total
	}
}

func (pl *layerCounts) addTrace(in *simInputs) {
	e, b := in.entries()
	pl.entries += e
	pl.blocks += b
}

// simulate runs in inside a sim.run span tagged with the policy.
func (pl *layerCounts) simulate(ctx context.Context, rec *recorder, parent int, req int64, in *simInputs, policy string, workers int) (*sim.Report, error) {
	s := rec.begin("sim.run", parent, req)
	rec.tag(s, policy)
	rep, err := in.simulate(ctx, workers)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	pl.accesses += rep.Accesses
	return rep, nil
}

// perLayer sets every per-layer metric from the recorded spans and the
// counts. A layer the workload never calls reads 0.
func (o *outcome) perLayer(rec *recorder, pl *layerCounts) {
	layers := rec.layers()
	mean := func(name string) float64 { return layers[name].meanMS() }
	us := func(name string) float64 { return 1000 * mean(name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	o.set("lang.parse_us", us("lang.parse"), "us")
	o.set("layout.optimize_us", us("layout.optimize"), "us")
	o.set("layout.solve_transform_us", us("layout.solve_transform"), "us")
	o.set("layout.pattern_us", us("layout.pattern"), "us")
	o.set("layout.optimized_ratio", ratio(float64(pl.optimized), float64(pl.arrays)), "ratio")
	o.set("layout.segs_us", us("layout.segs"), "us")
	o.set("layout.segs_per_query", ratio(float64(pl.segs), float64(pl.queries)), "count")
	o.set("layout.walked_share", ratio(float64(pl.walked), float64(pl.queries)), "ratio")
	o.set("parallel.plan_us", us("parallel.plan"), "us")
	o.set("trace.generate_ms", mean("trace.generate"), "ms")
	o.set("trace.entries", ratio(float64(pl.entries), float64(layers["trace.generate"].calls)), "count")
	o.set("trace.blocks_per_entry", ratio(float64(pl.blocks), float64(pl.entries)), "ratio")
	o.set("sim.run_ms", mean("sim.run"), "ms")
	for _, p := range policies {
		o.set("sim.run_ms."+p, mean("sim.run."+p), "ms")
	}
	o.set("sim.run_serial_ms", mean("sim.run_serial"), "ms")
	o.set("sim.ns_per_access", ratio(float64(layers["sim.run"].self.Nanoseconds()), float64(pl.accesses)), "ns")
	o.set("sim.hints_ms", mean("sim.hints"), "ms")
	for _, t := range reproTables {
		o.set("exp.table_s."+t.name, mean("exp.table."+t.name)/1000, "s")
	}
	o.set("exp.self_s", pl.expSelfS, "s")
	o.set("exp.coverage", pl.expCoverage, "ratio")
	o.set("service.offsets_handler_us", us("service.offsets_handler"), "us")
	o.set("service.compile_handler_us.hit", us("service.compile_handler.hit"), "us")
	o.set("service.compile_handler_us.miss", us("service.compile_handler.miss"), "us")
	o.set("service.simulate_accept_us", us("service.simulate_accept"), "us")
	o.set("service.compile_hit_ratio", ratio(pl.counters["compile_cache_hits_total"], pl.counters["compile_requests_total"]), "ratio")
	o.set("service.jobs_rejected", pl.counters["jobs_rejected_total"], "count")
	o.set("service.queue_depth_max", float64(pl.queueMax), "count")
	o.set("client.offsets_rtt_us", us("client.offsets_rtt"), "us")
	transport := 0.0
	if layers["client.offsets_rtt"].calls > 0 && layers["service.offsets_handler"].calls > 0 {
		transport = us("client.offsets_rtt") - us("service.offsets_handler")
	}
	o.set("client.transport_us", transport, "us")
	o.set("workload.generate_ms", mean("workload.generate"), "ms")
	lag, rps := 0.0, 0.0
	if pl.loop != nil {
		lag, rps = percentile(pl.loop.sentLag(), 0.99), pl.loop.achievedRPS()
	}
	o.set("driver.lag_p99_ms", lag, "ms")
	o.set("driver.achieved_rps", rps, "1/s")
	o.set("bench.trace_overhead", ratio(pl.traced.Seconds(), pl.untraced.Seconds()), "ratio")
}
