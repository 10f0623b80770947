package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flopt/internal/obs"
	"flopt/internal/service/api"
	"flopt/internal/service/client"
	"flopt/internal/workload"
)

// SpecLoadOptions configures one load-generation run against a daemon
// (or a cluster of them). Every run, spec, replay or hammer, goes
// through RunSpecLoad's one setup pass and one issuing loop, and all of
// its traffic through the typed v1 client.
type SpecLoadOptions struct {
	// BaseURL is one node URL, or a comma-separated list (cluster mode).
	BaseURL string
	// Events come from a spec expansion or a recorded trace, and are
	// issued back to back: their modeled TimeUS is not waited out, which
	// keeps the request sequence exact. The hammer issues one offsets
	// event, {Kind: offsets, Program: name}, repeated for Duration.
	Events []workload.Event
	// Concurrency is the number of closed-loop workers. At 1 (or 0) one
	// worker issues the events strictly in sequence order, event Seq to
	// target Seq mod the target count: the order a -record trace
	// captures and a replay of it issues again. Above 1, each worker
	// takes the next event as soon as its previous request returns, and
	// worker w always sends to target w mod the target count.
	Concurrency int
	// Duration > 0 repeats the event list until it elapses; 0 issues
	// each event once.
	Duration time.Duration
}

// ClassStats is the client-side account of one SLO class.
type ClassStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	P50US    int64 `json:"p50_us"`
	P99US    int64 `json:"p99_us"`
	hist     *obs.Histogram
}

// observe accounts one request; only successes carry a latency.
func (cs *ClassStats) observe(us int64, err error) {
	cs.Requests++
	if err != nil {
		cs.Errors++
		return
	}
	if cs.hist == nil {
		cs.hist = obs.NewHistogram(latencyBucketsUS()...)
	}
	cs.hist.Observe(us)
}

// finish fills in the quantiles.
func (cs *ClassStats) finish() {
	if cs.hist != nil {
		cs.P50US, cs.P99US = cs.hist.Quantile(0.5), cs.hist.Quantile(0.99)
	}
}

// SpecLoadResult is the measurement of a run: counts, throughput over
// the successful requests, and latency quantiles (µs) overall and per
// SLO class.
type SpecLoadResult struct {
	Events    int64                  `json:"events"`
	Errors    int64                  `json:"errors"`
	DurationS float64                `json:"duration_s"`
	RPS       float64                `json:"rps"`
	P50US     int64                  `json:"p50_us"`
	P99US     int64                  `json:"p99_us"`
	Targets   int                    `json:"targets,omitempty"`
	Classes   map[string]*ClassStats `json:"classes,omitempty"`
	Kinds     map[string]int64       `json:"kinds"`
}

// specProgram is one compiled program as seen through a target: the
// layout ID, the geometry of its largest array, and prebuilt compile
// and simulate bodies reused across events (the client marshals them
// at call time and retains nothing).
type specProgram struct {
	layoutID string
	array    string
	dims     []int64
	compReq  *api.CompileRequest
	simReq   *api.SimulateRequest
}

// offsetsRequest builds the one offsets request shape: 4 queries, each
// a run of up to 512 elements along the innermost dimension of the
// largest array (the contiguous-run case the Strider fast path serves
// in O(segments)), starting on consecutive rows from row seq. Workers
// build one per program and move its rows per event, which keeps the
// per-event path allocation-free and replays byte-identical.
func (sp *specProgram) offsetsRequest() *api.OffsetsRequest {
	dir := make([]int64, len(sp.dims))
	dir[len(dir)-1] = 1
	req := &api.OffsetsRequest{Array: sp.array, Queries: make([]api.OffsetQuery, 4)}
	for i := range req.Queries {
		req.Queries[i] = api.OffsetQuery{Start: make([]int64, len(dir)), Dir: dir, Count: min(512, sp.dims[len(dir)-1])}
	}
	return req
}

func (sp *specProgram) setRows(req *api.OffsetsRequest, seq int64) {
	for i := range req.Queries {
		req.Queries[i].Start[0] = (seq + int64(i)) % sp.dims[0]
	}
}

// RunSpecLoad issues opt.Events and reports counts and latency
// quantiles, overall and per SLO class. Setup compiles every program
// once through the first target (in cluster mode the routing layer
// forwards it to the ring owner) and sends one offsets probe per
// program to every target, so peer cache fills happen before the
// measured window. Setup requests are marked api.HeaderNoRecord, so a
// -record trace on the server holds exactly the issued events. It
// returns an error when no target can be reached or a program cannot be
// compiled; per-event failures are counted, not fatal, and a canceled
// ctx ends the run early with what was issued.
func RunSpecLoad(ctx context.Context, opt SpecLoadOptions) (*SpecLoadResult, error) {
	if len(opt.Events) == 0 {
		return nil, fmt.Errorf("loadgen: no events to issue")
	}
	workers := max(opt.Concurrency, 1)
	conns := max(2*workers, 8)
	hc := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
	var targets []*client.Client
	for _, u := range strings.Split(opt.BaseURL, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, client.New(u, client.WithHTTPClient(hc)))
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("loadgen: no target URLs in %q", opt.BaseURL)
	}

	setupCtx := client.ContextWithHeader(ctx, api.HeaderNoRecord, "1")
	programs := map[string]*specProgram{}
	for _, name := range workload.Programs(opt.Events) {
		comp, err := targets[0].Compile(setupCtx, &api.CompileRequest{Workload: name})
		if err != nil {
			return nil, fmt.Errorf("loadgen: setup compile %s: %w", name, err)
		}
		sp := &specProgram{layoutID: comp.LayoutID, compReq: &api.CompileRequest{Workload: name},
			simReq: &api.SimulateRequest{LayoutID: comp.LayoutID}}
		for arr, info := range comp.Arrays {
			if sp.array == "" || info.FileElems > comp.Arrays[sp.array].FileElems {
				sp.array, sp.dims = arr, info.Dims
			}
		}
		if sp.array == "" {
			return nil, fmt.Errorf("loadgen: program %s has no arrays", name)
		}
		for i, tgt := range targets {
			if _, err := tgt.Offsets(setupCtx, sp.layoutID, sp.offsetsRequest()); err != nil {
				return nil, fmt.Errorf("loadgen: warmup target %d (%s): %w", i, tgt.BaseURL(), err)
			}
		}
		programs[name] = sp
	}

	res := &SpecLoadResult{Targets: len(targets), Classes: map[string]*ClassStats{}, Kinds: map[string]int64{}}
	var total ClassStats
	var mu sync.Mutex // guards res and total
	var next atomic.Int64
	n := int64(len(opt.Events))
	start := time.Now()
	deadline := start.Add(opt.Duration)
	issue := func(w int) {
		offReqs := map[string]*api.OffsetsRequest{}
		for name, sp := range programs {
			offReqs[name] = sp.offsetsRequest()
		}
		// The distinct (SLO, client) pairs are few; caching their header
		// contexts keeps the per-event path allocation-free.
		ctxCache := map[[2]string]context.Context{}
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if opt.Duration > 0 && !time.Now().Before(deadline) || opt.Duration <= 0 && i >= n {
				return
			}
			ev := opt.Events[i%n]
			seq := ev.Seq + i/n*n
			tgt := targets[w%len(targets)]
			if workers == 1 {
				tgt = targets[seq%int64(len(targets))]
			}
			ckey := [2]string{ev.SLO, ev.Client}
			ectx, ok := ctxCache[ckey]
			if !ok {
				ectx = ctx
				for _, h := range [][2]string{{api.HeaderSLOClass, ev.SLO}, {api.HeaderClient, ev.Client}} {
					if h[1] != "" {
						ectx = client.ContextWithHeader(ectx, h[0], h[1])
					}
				}
				ctxCache[ckey] = ectx
			}
			sp := programs[ev.Program]
			t0 := time.Now()
			var err error
			switch ev.Kind {
			case workload.KindCompile:
				_, err = tgt.Compile(ectx, sp.compReq)
			case workload.KindOffsets:
				sp.setRows(offReqs[ev.Program], seq)
				_, err = tgt.Offsets(ectx, sp.layoutID, offReqs[ev.Program])
			case workload.KindSimulate:
				// Fire and forget: the 202 acceptance is the event; jobs are
				// not polled (exp.WorkloadSweep is the offline analogue that
				// actually runs them).
				_, err = tgt.Simulate(ectx, sp.simReq)
			default:
				err = fmt.Errorf("unknown event kind %q", ev.Kind)
			}
			us := time.Since(t0).Microseconds()

			mu.Lock()
			res.Kinds[ev.Kind]++
			total.observe(us, err)
			if ev.SLO != "" {
				cs := res.Classes[ev.SLO]
				if cs == nil {
					cs = &ClassStats{}
					res.Classes[ev.SLO] = cs
				}
				cs.observe(us, err)
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); issue(w) }()
	}
	wg.Wait()

	res.DurationS = time.Since(start).Seconds()
	total.finish()
	res.Events, res.Errors, res.P50US, res.P99US = total.Requests, total.Errors, total.P50US, total.P99US
	if res.DurationS > 0 {
		res.RPS = float64(res.Events-res.Errors) / res.DurationS
	}
	for _, cs := range res.Classes {
		cs.finish()
	}
	return res, nil
}
