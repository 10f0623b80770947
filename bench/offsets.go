package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"flopt/internal/layout"
	"flopt/internal/linalg"
	"flopt/internal/service"
	"flopt/internal/service/api"
	"flopt/internal/sim"
)

// The offsets workload is the service's read hot path: an open-loop
// Poisson stream of offsets batches against an in-process floptd
// (DefaultServerConfig, no data dir) that compiled all programs during
// set-up. Each request is decode → cache lookup → Strider (or the
// per-element walk) → encode; nothing is simulated or written. The run
// holds a fixed rate, which gives the reported latencies, then searches
// for the highest rate that still meets the latency limit.
//
// The fixed rate sits near a third of the 2-CPU capacity, where the p99
// repeats within about a tenth from run to run; at 3000/s it already
// swings with the few largest per-element walks. The search limits the
// p90 for the same reason: near the knee the p99 follows single host
// stalls. Latency runs from the due time, so driver lag is inside it.
const (
	offsetsRate     = 1500.0 // fixed-rate step, requests per second
	offsetsP90Limit = 5.0    // ms: the capacity search's p90 limit
	offsetsPool     = 4096   // distinct requests the schedules cycle through
)

// offsetsReq is one offsets batch and the local layout that answers it.
type offsetsReq struct {
	id      string // layout ID on the daemon
	lay     layout.Layout
	req     *api.OffsetsRequest
	strided []bool // per query: whether the layout strides its direction
}

// drawOffsets draws a batch of 1–8 walks over one array of pr. About 80 %
// of the walks go along a unit direction the array's layout strides in
// closed form, the rest along one it cannot (optimized layouts across
// their partition hyperplanes), which the service walks per element.
// Counts run from 64 to 4096, cut to the array's extent.
func drawOffsets(rng *rand.Rand, pr *program, id string) offsetsReq {
	a := pr.p.Arrays[rng.Intn(len(pr.p.Arrays))]
	l := pr.res.Layouts[a.Name]
	st, _ := l.(layout.Strider)
	var strideable, walked []int
	for k := range a.Dims {
		if st != nil && st.CanStride(unitDir(len(a.Dims), k)) {
			strideable = append(strideable, k)
		} else {
			walked = append(walked, k)
		}
	}
	r := offsetsReq{id: id, lay: l, req: &api.OffsetsRequest{Array: a.Name}}
	for n := 1 + rng.Intn(8); n > 0; n-- {
		axes, strided := strideable, true
		if len(strideable) == 0 || (len(walked) > 0 && rng.Float64() < 0.2) {
			axes, strided = walked, false
		}
		k := axes[rng.Intn(len(axes))]
		count := min(64+rng.Int63n(4096-64+1), a.Dims[k])
		start := make([]int64, len(a.Dims))
		for d, n := range a.Dims {
			start[d] = rng.Int63n(n)
		}
		start[k] = rng.Int63n(a.Dims[k] - count + 1)
		r.req.Queries = append(r.req.Queries, api.OffsetQuery{Start: start, Dir: unitDir(len(a.Dims), k), Count: count})
		r.strided = append(r.strided, strided)
	}
	return r
}

func unitDir(rank, k int) linalg.Vec {
	d := make(linalg.Vec, rank)
	d[k] = 1
	return d
}

// walkOffsets evaluates the layout element by element along q, as the
// service's fallback does.
func walkOffsets(l layout.Layout, q api.OffsetQuery, visit func(k, off int64) error) error {
	idx := append(linalg.Vec(nil), q.Start...)
	for k := int64(0); k < q.Count; k++ {
		if err := visit(k, l.Offset(idx)); err != nil {
			return err
		}
		for d := range idx {
			idx[d] += q.Dir[d]
		}
	}
	return nil
}

// checkOffsets compares a response with the per-element Layout.Offset
// walk of every query.
func (r offsetsReq) check(resp *api.OffsetsResponse) error {
	if resp.LayoutID != r.id || resp.Array != r.req.Array || resp.FileElems != r.lay.SizeElems() ||
		len(resp.Results) != len(r.req.Queries) {
		return fmt.Errorf("offsets %s/%s: response header %s/%s, %d elems, %d results; want %d elems, %d results",
			r.id, r.req.Array, resp.LayoutID, resp.Array, resp.FileElems, len(resp.Results), r.lay.SizeElems(), len(r.req.Queries))
	}
	for qi, q := range r.req.Queries {
		res := resp.Results[qi]
		var got []int64
		for _, s := range res.Segs {
			for k := int64(0); k < s.Count && int64(len(got)) <= q.Count; k++ {
				got = append(got, s.Start+k*s.Stride)
			}
		}
		if int64(len(got)) != q.Count || res.Strided != r.strided[qi] {
			return fmt.Errorf("offsets %s/%s query %d: %d offsets (strided %v), want %d (strided %v)",
				r.id, r.req.Array, qi, len(got), res.Strided, q.Count, r.strided[qi])
		}
		err := walkOffsets(r.lay, q, func(k, off int64) error {
			if got[k] != off {
				return fmt.Errorf("offsets %s/%s query %d element %d: got %d, Layout.Offset %d", r.id, r.req.Array, qi, k, got[k], off)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// offsetsSetup is a daemon with every program compiled, the same
// programs compiled locally, and the request pool drawn from the seed.
type offsetsSetup struct {
	d     *daemon
	progs []*program
	ids   map[string]string // program → default-platform layout ID
	pool  []offsetsReq
}

// newOffsetsSetup starts a daemon and compiles every program on it and
// locally, checking that both chose the same layouts.
func newOffsetsSetup(ctx context.Context, e *env, cfg service.Config) (*offsetsSetup, error) {
	progs, err := compileWorkloads(e.rec, e.programs(), sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg, e.nproc)
	if err != nil {
		return nil, err
	}
	s := &offsetsSetup{d: d, progs: progs, ids: map[string]string{}}
	for _, pr := range progs {
		resp, err := d.cli.Compile(ctx, &api.CompileRequest{Workload: pr.name})
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("compile %s: %w", pr.name, err)
		}
		if err := compareCompile(resp, pr); err != nil {
			d.stop()
			return nil, err
		}
		s.ids[pr.name] = resp.LayoutID
	}
	rng := e.rng(2)
	for i := 0; i < offsetsPool; i++ {
		pr := progs[rng.Intn(len(progs))]
		s.pool = append(s.pool, drawOffsets(rng, pr, s.ids[pr.name]))
	}
	return s, nil
}

// sampled reports whether schedule index i is in the run's seeded 1 %
// sample of responses checked after the timed window.
func (e *env) sampled(i int) bool {
	return (uint64(i)*0x9E3779B97F4A7C15+uint64(e.seed))%100 == 0
}

// sample is one response kept for checking after the timed window.
type sample struct {
	r    offsetsReq
	resp *api.OffsetsResponse
}

// phase sends an open-loop Poisson schedule at rate for d, starting at a
// seeded place in the pool, and returns the responses of the run's
// seeded 1 % sample when keep is set.
func (s *offsetsSetup) phase(ctx context.Context, e *env, stream int64, rate float64, d, abortLag time.Duration,
	keep bool) (*loopResult, []sample) {
	rng := e.rng(stream)
	due := poissonDue(rng, rate, d)
	base := rng.Intn(len(s.pool))
	kept := make([]sample, len(due))
	res := openLoop(ctx, due, e.nproc, abortLag, func(ctx context.Context, i int) error {
		r := s.pool[(base+i)%len(s.pool)]
		resp, err := s.d.cli.Offsets(ctx, r.id, r.req)
		if keep && resp != nil && e.sampled(i) {
			kept[i] = sample{r, resp}
		}
		return err
	})
	var out []sample
	for _, k := range kept {
		if k.resp != nil {
			out = append(out, k)
		}
	}
	return res, out
}

// meets reports whether a phase held the capacity search's limit.
func meets(r *loopResult) bool {
	return !r.aborted && r.failed == 0 && percentile(r.sentLat(), 0.90) <= offsetsP90Limit
}

// nextRate returns the capacity search's next rate: double the highest
// passing rate until one fails, then bisect; false once the bracket is
// within 5 %.
func nextRate(lo, hi float64) (float64, bool) {
	switch {
	case math.IsInf(hi, 1):
		return 2 * lo, true
	case lo == 0:
		return hi / 2, true
	case (hi-lo)/lo > 0.05:
		return (lo + hi) / 2, true
	}
	return 0, false
}

func offsetsRun(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	s, setup, err := repeatSetup(func() (*offsetsSetup, error) {
		return newOffsetsSetup(ctx, e, service.DefaultServerConfig())
	}, func(s *offsetsSetup) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	w := e.window
	s.phase(ctx, e, 10, offsetsRate, w/20, 0, false) // warm-up, not measured
	start := time.Now()
	fixed, kept := s.phase(ctx, e, 11, offsetsRate, w*7/20, 0, true)
	lat := fixed.sentLat()
	o.Attempted, o.Failed = int64(len(lat)), int64(fixed.failed)

	// The capacity search runs 2 s steps while the window lasts. A step
	// that falls ten times the limit behind its schedule stops early: it
	// has failed already.
	step := w / 10
	lo, hi := 0.0, math.Inf(1)
	if meets(fixed) {
		lo = offsetsRate
	} else {
		hi = offsetsRate
	}
	for n := int64(0); time.Since(start)+step <= w; n++ {
		rate, ok := nextRate(lo, hi)
		if !ok {
			break
		}
		r, _ := s.phase(ctx, e, 20+n, rate, step, time.Duration(10*offsetsP90Limit)*time.Millisecond, false)
		o.Attempted += int64(len(r.sentLat()))
		o.Failed += int64(r.failed)
		if meets(r) {
			lo = rate
		} else {
			hi = rate
		}
	}
	window := time.Since(start)
	if lo == 0 {
		// Even the lowest rate tried missed the limit; report what the
		// fixed step achieved.
		lo = fixed.achievedRPS()
	}
	if err := s.d.stop(); err != nil {
		return nil, err
	}
	for _, k := range kept {
		o.check(k.r.check(k.resp))
	}
	fmt.Fprintf(e.log, "offsets: fixed %.0f rps p50 %.3f ms p99 %.3f ms; capacity %.0f rps (limit p90 ≤ %.0f ms); %d responses checked\n",
		offsetsRate, percentile(lat, 0.5), percentile(lat, 0.99), lo, offsetsP90Limit, len(kept))
	return o, o.endToEnd(setup, lat, window, lo)
}

// replayOffsets sends one batch serially: untimed by the driver, it
// resolves each query through the local layout (layout.segs, or
// layout.walk for the per-element fallback), runs the request through
// the daemon's handler with no network (service.offsets_handler), and
// sends it through the client (client.offsets_rtt). An untraced client
// round trip, before or after, is the baseline for the tracing overhead.
func replayOffsets(ctx context.Context, rec *recorder, d *daemon, r offsetsReq, req int64, pl *layerCounts, o *outcome) error {
	untraced := func() error {
		t0 := time.Now()
		_, err := d.cli.Offsets(ctx, r.id, r.req)
		pl.untraced += time.Since(t0)
		return err
	}
	traced := func() error {
		root := rec.begin("offsets.request", -1, req)
		defer rec.end(root)
		for qi, q := range r.req.Queries {
			if r.strided[qi] {
				s := rec.begin("layout.segs", root, req)
				r.lay.(layout.Strider).AppendSegs(nil, q.Start, q.Dir, q.Count)
				rec.end(s)
			} else {
				s := rec.begin("layout.walk", root, req)
				walkOffsets(r.lay, q, func(int64, int64) error { return nil })
				rec.end(s)
				pl.walked++
			}
			pl.queries++
		}
		s := rec.begin("service.offsets_handler", root, req)
		w, err := d.serve(http.MethodPost, "/"+api.V1+"/layouts/"+r.id+"/offsets", r.req)
		rec.end(s)
		if err != nil {
			return err
		}
		var viaHandler api.OffsetsResponse
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &viaHandler) != nil {
			return fmt.Errorf("offsets handler: status %d: %s", w.Code, w.Body.String())
		}
		o.check(r.check(&viaHandler))
		s = rec.begin("client.offsets_rtt", root, req)
		resp, err := d.cli.Offsets(ctx, r.id, r.req)
		rec.end(s)
		pl.traced += rec.duration(s)
		if err != nil {
			return err
		}
		for _, res := range resp.Results {
			pl.segs += int64(len(res.Segs))
		}
		o.check(r.check(resp))
		return nil
	}
	first, second := untraced, traced
	if req%2 == 1 {
		first, second = traced, untraced
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// offsetsTrace runs a third of the window open loop at the fixed rate,
// for the driver's lag and achieved rate and the service's counters,
// then replays pool requests serially for the rest.
func offsetsTrace(ctx context.Context, e *env) (*outcome, error) {
	o, rec := newOutcome(), e.rec
	var pl layerCounts
	s, err := newOffsetsSetup(ctx, e, service.DefaultServerConfig())
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	pl.addCompiled(s.progs...)
	start := time.Now()
	wctx, stop := context.WithCancel(ctx)
	depth := s.d.watchQueue(wctx)
	pl.loop, _ = s.phase(ctx, e, 11, offsetsRate, e.window/3, 0, false)
	stop()
	pl.queueMax = <-depth
	if pl.counters, err = s.d.counters(ctx); err != nil {
		return nil, err
	}
	base := e.rng(3).Intn(len(s.pool))
	for i := 0; i == 0 || time.Since(start) < e.window; i++ {
		if err := replayOffsets(ctx, rec, s.d, s.pool[(base+i)%len(s.pool)], int64(i), &pl, o); err != nil {
			return nil, err
		}
		o.Attempted++
	}
	o.perLayer(rec, &pl)
	return o, nil
}
