package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonDue returns the due times, as offsets from the start, of a
// Poisson arrival process at rate per second over d.
func poissonDue(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// loopResult is one open-loop phase, indexed like its schedule. For each
// request sent, lat runs in ms from its due time to its completion (+Inf
// when it failed) and lag from its due time to when a worker sent it.
type loopResult struct {
	lat, lag []float64
	sent     []bool
	failed   int
	// aborted reports that the phase stopped early because the driver
	// fell more than the abort lag behind its schedule.
	aborted bool
	// start is the schedule's time zero; elapsed runs from it to the
	// last completion.
	start   time.Time
	elapsed time.Duration
}

func (r *loopResult) pick(xs []float64) []float64 {
	var out []float64
	for i, ok := range r.sent {
		if ok {
			out = append(out, xs[i])
		}
	}
	return out
}

// sentLat and sentLag return the samples of the requests sent.
func (r *loopResult) sentLat() []float64 { return r.pick(r.lat) }
func (r *loopResult) sentLag() []float64 { return r.pick(r.lag) }

// achievedRPS is requests completed per second of the phase.
func (r *loopResult) achievedRPS() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.sentLat())-r.failed) / r.elapsed.Seconds()
}

// openLoop sends request i at start+due[i] from conns workers, each with
// one request in flight at a time. The schedule does not wait for
// replies: when every worker is busy, due requests queue in the driver
// and that wait is charged to their latency, as the independent users an
// open loop models would see it. With abortLag > 0 the phase stops
// sending once a request would leave more than abortLag late.
func openLoop(ctx context.Context, due []time.Duration, conns int, abortLag time.Duration,
	send func(ctx context.Context, i int) error) *loopResult {
	res := &loopResult{lat: make([]float64, len(due)), lag: make([]float64, len(due)), sent: make([]bool, len(due))}
	lastEnd := make([]time.Time, conns)
	failed := make([]int, conns)
	var next atomic.Int64
	var aborted atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || aborted.Load() || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				for wait := time.Until(at); wait > 0; wait = time.Until(at) {
					// A runtime timer on an idle process wakes up to a
					// millisecond late (the netpoller sleeps in whole
					// milliseconds), which would be charged to every
					// request; a thread sleep is late by tens of µs. A
					// signal can end it early, hence the loop.
					ts := syscall.NsecToTimespec(wait.Nanoseconds())
					syscall.Nanosleep(&ts, nil)
				}
				late := time.Since(at)
				if abortLag > 0 && late > abortLag {
					aborted.Store(true)
					return
				}
				err := send(ctx, i)
				lastEnd[w] = time.Now()
				res.sent[i], res.lag[i], res.lat[i] = true, ms(late), ms(lastEnd[w].Sub(at))
				if err != nil {
					res.lat[i] = math.Inf(1)
					failed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	res.aborted, res.start = aborted.Load(), start
	for w := range lastEnd {
		res.failed += failed[w]
		if d := lastEnd[w].Sub(start); d > res.elapsed {
			res.elapsed = d
		}
	}
	return res
}
