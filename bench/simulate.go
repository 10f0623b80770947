package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"flopt/internal/sim"
)

// The simulate workload is the library user's path: one caller makes
// closed-loop flopt.Run calls with default options, so the sharded
// engine runs at GOMAXPROCS shards and trace generation at GOMAXPROCS
// workers. Programs are compiled during set-up; no call reuses another's
// traces. One round calls every program once, in a seeded order, with
// the (scheme, policy) pairs rotating over the programs, so every round
// does the same work and the seed changes only the order.

// simulatePairs are the (optimized, policy) pairs the rounds rotate
// through; simulateCalls starts the rotation at pair 1.
var simulatePairs = [...]struct {
	opt    bool
	policy string
}{{false, "lru"}, {true, "karma"}, {false, "demote"}, {true, "lru"}, {false, "karma"}, {true, "demote"}}

func simulateCalls(progs []*program) []simCall {
	calls := make([]simCall, len(progs))
	for i, pr := range progs {
		p := simulatePairs[(i+1)%len(simulatePairs)]
		calls[i] = simCall{prog: pr, opt: p.opt, policy: p.policy}
	}
	return calls
}

func simulateRun(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	progs, setup, err := repeatSetup(func() ([]*program, error) {
		return compileWorkloads(nil, e.programs(), sim.DefaultConfig())
	}, func([]*program) {})
	if err != nil {
		return nil, err
	}
	calls := simulateCalls(progs)
	// Two untimed calls warm the process; every timed call then starts
	// from a collected heap, so none pays for the garbage of the one
	// before.
	for _, c := range calls[:min(2, len(calls))] {
		if _, err := c.run(ctx); err != nil {
			return nil, err
		}
	}
	rng := e.rng(1)
	var lat []float64
	window, err := rounds(e.window, func(int) error {
		for _, i := range rng.Perm(len(calls)) {
			c := calls[i]
			runtime.GC()
			t0 := time.Now()
			rep, err := c.run(ctx)
			if err != nil {
				lat = append(lat, math.Inf(1))
				o.Failed++
				continue
			}
			lat = append(lat, ms(time.Since(t0)))
			o.check(e.gold.checkReport(c.key(), rep))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.Attempted = int64(len(lat))
	return o, o.endToEnd(setup, lat, window, float64(len(lat))/window.Seconds())
}

// simulateTrace replays the same rounds. Each call runs once through
// flopt.Run untraced and once as flopt.Run's steps with a span around
// each layer call (alternating which goes first); the traced call's
// traces are then simulated again on the serial engine for
// sim.run_serial_ms. All three reports must equal the golden.
func simulateTrace(ctx context.Context, e *env) (*outcome, error) {
	o, rec := newOutcome(), e.rec
	var pl layerCounts
	progs, err := compileWorkloads(rec, e.programs(), sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pl.addCompiled(progs...)
	calls := simulateCalls(progs)
	rng := e.rng(1)
	_, err = rounds(e.window, func(r int) error {
		for k, i := range rng.Perm(len(calls)) {
			c, req := calls[i], int64(r*len(calls)+k)
			untraced := func() error {
				t0 := time.Now()
				rep, err := c.run(ctx)
				pl.untraced += time.Since(t0)
				if err == nil {
					o.check(e.gold.checkReport(c.key(), rep))
				}
				return err
			}
			traced := func() error {
				root := rec.begin("simulate.call", -1, req)
				in, err := c.prepare(rec, root, req, e.nproc)
				if err != nil {
					return err
				}
				rep, err := pl.simulate(ctx, rec, root, req, in, c.policy, e.nproc)
				rec.end(root)
				pl.traced += rec.duration(root)
				if err != nil {
					return err
				}
				pl.addTrace(in)
				o.check(e.gold.checkReport(c.key(), rep))
				s := rec.begin("sim.run_serial", -1, req)
				rep, err = in.simulate(ctx, 1)
				rec.end(s)
				if err != nil {
					return err
				}
				o.check(e.gold.checkReport(c.key(), rep))
				return nil
			}
			first, second := untraced, traced
			if k%2 == 1 {
				first, second = traced, untraced
			}
			if err := first(); err != nil {
				return err
			}
			if err := second(); err != nil {
				return err
			}
			o.Attempted++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.perLayer(rec, &pl)
	return o, nil
}
