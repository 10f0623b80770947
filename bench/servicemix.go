package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"flopt/internal/service"
	"flopt/internal/service/api"
	"flopt/internal/service/client"
	"flopt/internal/sim"
	"flopt/internal/workload"
	"flopt/internal/workloads"
)

// The service_mix workload puts writes beside reads: an in-process
// floptd with a data directory, so the layout WAL and job journal are
// on, receives an open-loop Poisson mix expanded from
// specs/service_mix.json at about 150 requests per second — about 70 %
// offsets, 25 % compiles and 5 % simulate jobs. Compiles draw their
// platform override from 12 cache sizes, so 16 programs give 192
// layouts, more than the 128-entry compile cache holds: cold builds, WAL
// appends and evictions mix with hits. Jobs simulate small programs and
// are polled every 5 ms until done. The offered load stays well under
// the host's CPUs, so what it measures is how the routes compete.
//
//go:embed specs/service_mix.json
var serviceMixSpec []byte

// The compile overrides' cache sizes, in blocks; 64 and 128 are the
// default platform's.
var (
	ioCaches      = []int{16, 32, 64, 128}
	storageCaches = []int{64, 128, 256}
)

// mixOp is one request of the mix, with everything drawn for it.
type mixOp struct {
	ev   workload.Event
	off  offsetsReq          // offsets
	cfg  *api.PlatformConfig // compile
	call simCall             // simulate
}

// mixSetup is a journaling daemon with the default-platform layouts of
// every program compiled (offsets and jobs use those), and the seeded
// request stream.
type mixSetup struct {
	d     *daemon
	dir   string
	progs map[string]*program
	ids   map[string]string
	ops   []mixOp
	due   []time.Duration
}

func newMixSetup(ctx context.Context, e *env, duration time.Duration) (*mixSetup, error) {
	rec := e.rec
	spec, err := workload.ParseSpec(serviceMixSpec)
	if err != nil {
		return nil, err
	}
	spec.Seed, spec.DurationS = e.seed, duration.Seconds()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := rec.begin("workload.generate", -1, 0)
	events, err := spec.Generate()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	list, err := compileWorkloads(rec, e.programs(), sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "service_mix-")
	if err != nil {
		return nil, err
	}
	cfg := service.DefaultServerConfig()
	cfg.DataDir = dir
	d, err := startDaemon(cfg, e.nproc)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &mixSetup{d: d, dir: dir, progs: map[string]*program{}, ids: map[string]string{}}
	for _, pr := range list {
		resp, err := d.cli.Compile(ctx, &api.CompileRequest{Workload: pr.name})
		if err != nil {
			s.release()
			return nil, fmt.Errorf("compile %s: %w", pr.name, err)
		}
		s.progs[pr.name], s.ids[pr.name] = pr, resp.LayoutID
	}
	rng := e.rng(4)
	for _, ev := range events {
		pr, ok := s.progs[ev.Program]
		if !ok {
			continue // a small run keeps only its own programs
		}
		op := mixOp{ev: ev}
		switch ev.Kind {
		case workload.KindOffsets:
			op.off = drawOffsets(rng, pr, s.ids[pr.name])
		case workload.KindCompile:
			op.cfg = &api.PlatformConfig{IOCacheBlocks: ioCaches[rng.Intn(len(ioCaches))],
				StorageCacheBlocks: storageCaches[rng.Intn(len(storageCaches))]}
		case workload.KindSimulate:
			p := simulatePairs[rng.Intn(len(simulatePairs))]
			op.call = simCall{prog: pr, opt: p.opt, policy: p.policy}
		}
		s.ops = append(s.ops, op)
		s.due = append(s.due, time.Duration(ev.TimeUS)*time.Microsecond)
	}
	return s, nil
}

func (s *mixSetup) release() {
	s.d.stop()
	os.RemoveAll(s.dir)
}

func (s *mixSetup) simulateRequest(op mixOp) *api.SimulateRequest {
	opt := op.call.opt
	return &api.SimulateRequest{LayoutID: s.ids[op.call.prog.name], Optimized: &opt, Policy: op.call.policy}
}

// mixResult is one open-loop pass over ops[:n]. lat is by op index, in
// ms from the due time to the response, or for a job to when a poll
// first saw it done.
type mixResult struct {
	loop     *loopResult
	lat      []float64
	failed   int
	elapsed  time.Duration
	offsets  map[int]*api.OffsetsResponse // the sampled responses
	compiles []*api.CompileResponse
	jobs     []*api.JobResponse
}

// drive sends ops[:n] on their schedule. Each simulate submission hands
// its job to one poller goroutine, which polls every 5 ms through the
// same connections.
func (s *mixSetup) drive(ctx context.Context, e *env, n int) *mixResult {
	r := &mixResult{lat: make([]float64, n), offsets: map[int]*api.OffsetsResponse{},
		compiles: make([]*api.CompileResponse, n), jobs: make([]*api.JobResponse, n)}
	offsets := make([]*api.OffsetsResponse, n)
	type pending struct {
		i  int
		id string
	}
	jobs := 0
	for _, op := range s.ops[:n] {
		if op.ev.Kind == workload.KindSimulate {
			jobs++
		}
	}
	// Sized to every job of the pass, so a submission never waits on
	// the poller.
	submitted := make(chan pending, jobs)
	jobDone := make([]time.Time, n)
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		pctx, cancel := context.WithTimeout(ctx, e.window+time.Minute)
		defer cancel()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var waiting []pending
		for in := submitted; in != nil || len(waiting) > 0; {
			select {
			case p, ok := <-in:
				if !ok {
					in = nil
					continue
				}
				waiting = append(waiting, p)
			case <-tick.C:
				keep := waiting[:0]
				for _, p := range waiting {
					jr, err := s.d.cli.JobStatus(pctx, p.id)
					switch {
					case err != nil || jr.State == api.JobFailed:
						jobDone[p.i] = time.Now()
					case jr.State == api.JobDone:
						r.jobs[p.i], jobDone[p.i] = jr, time.Now()
					default:
						keep = append(keep, p)
					}
				}
				waiting = keep
			case <-pctx.Done():
				return
			}
		}
	}()
	r.loop = openLoop(ctx, s.due[:n], e.nproc, 0, func(ctx context.Context, i int) error {
		op := s.ops[i]
		ctx = client.ContextWithHeader(ctx, api.HeaderSLOClass, op.ev.SLO)
		switch op.ev.Kind {
		case workload.KindOffsets:
			resp, err := s.d.cli.Offsets(ctx, op.off.id, op.off.req)
			if e.sampled(i) {
				offsets[i] = resp
			}
			return err
		case workload.KindCompile:
			resp, err := s.d.cli.Compile(ctx, &api.CompileRequest{Workload: op.ev.Program, Config: op.cfg})
			r.compiles[i] = resp
			return err
		default:
			jr, err := s.d.cli.Simulate(ctx, s.simulateRequest(op))
			if err == nil {
				submitted <- pending{i, jr.JobID}
			}
			return err
		}
	})
	close(submitted)
	<-polled
	r.elapsed = r.loop.elapsed
	for i := 0; i < n; i++ {
		if !r.loop.sent[i] {
			continue
		}
		r.lat[i] = r.loop.lat[i]
		if offsets[i] != nil {
			r.offsets[i] = offsets[i]
		}
		if s.ops[i].ev.Kind == workload.KindSimulate && !math.IsInf(r.lat[i], 1) {
			r.lat[i] = math.Inf(1)
			if r.jobs[i] != nil {
				end := jobDone[i].Sub(r.loop.start)
				r.lat[i] = ms(end - s.due[i])
				r.elapsed = max(r.elapsed, end)
			}
		}
		if math.IsInf(r.lat[i], 1) {
			r.failed++
		}
	}
	return r
}

// check compares the pass's outputs with the references: the sampled
// offsets against Layout.Offset, each compile's layouts against a local
// compile under the same platform, and each job's report against the
// golden.
func (s *mixSetup) check(e *env, r *mixResult, o *outcome) {
	for i, resp := range r.offsets {
		o.check(s.ops[i].off.check(resp))
	}
	local := map[string]*program{}
	ids := map[string]string{}
	for i, resp := range r.compiles {
		if resp == nil {
			continue
		}
		op := s.ops[i]
		key := fmt.Sprintf("%s/%d/%d", op.ev.Program, op.cfg.IOCacheBlocks, op.cfg.StorageCacheBlocks)
		if id, ok := ids[key]; ok && id != resp.LayoutID {
			o.wrong("compile %s: layout ID %s, earlier %s", key, resp.LayoutID, id)
		}
		ids[key] = resp.LayoutID
		pr := local[key]
		if pr == nil {
			w, _ := workloads.ByName(op.ev.Program)
			var err error
			if pr, err = compileProgram(nil, -1, 0, w.Name, w.Source, op.cfg.Apply(sim.DefaultConfig())); err != nil {
				o.wrong("compile %s locally: %v", key, err)
				continue
			}
			local[key] = pr
		}
		o.check(compareCompile(resp, pr))
	}
	for i, jr := range r.jobs {
		if jr != nil {
			if jr.Report == nil {
				o.wrong("job %s finished without a report", jr.JobID)
				continue
			}
			o.check(e.gold.checkJob(s.ops[i].call.key(), jr.Report))
		}
	}
}

func serviceMixRun(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	s, setup, err := repeatSetup(func() (*mixSetup, error) {
		return newMixSetup(ctx, e, e.window*9/10)
	}, (*mixSetup).release)
	if err != nil {
		return nil, err
	}
	defer s.release()
	r := s.drive(ctx, e, len(s.ops))
	var lat []float64
	byKind := map[string][]float64{}
	for i, ok := range r.loop.sent {
		if ok {
			lat = append(lat, r.lat[i])
			byKind[s.ops[i].ev.Kind] = append(byKind[s.ops[i].ev.Kind], r.lat[i])
		}
	}
	for _, k := range workload.Kinds() {
		fmt.Fprintf(e.log, "service_mix: %-8s n=%-5d p50 %8.3f ms p99 %8.3f ms\n", k, len(byKind[k]),
			percentile(byKind[k], 0.5), percentile(byKind[k], 0.99))
	}
	s.check(e, r, o)
	o.Attempted, o.Failed = int64(len(lat)), int64(r.failed)
	return o, o.endToEnd(setup, lat, r.elapsed, float64(len(lat)-r.failed)/r.elapsed.Seconds())
}

// serviceMixTrace drives the first third of the stream open loop, for
// the driver's lag and achieved rate and the service's counters, then
// replays the following requests serially with spans: offsets as in the
// offsets workload; compiles through the layer functions and then the
// handler (tagged hit or miss); jobs through the handler's accept, a
// poll until done, and the job's simulation replayed through the layer
// functions at the service's shard count.
func serviceMixTrace(ctx context.Context, e *env) (*outcome, error) {
	o, rec := newOutcome(), e.rec
	var pl layerCounts
	s, err := newMixSetup(ctx, e, e.window)
	if err != nil {
		return nil, err
	}
	defer s.release()
	for _, pr := range s.progs {
		pl.addCompiled(pr)
	}
	start := time.Now()
	n := 0
	for n < len(s.due) && s.due[n] < e.window/3 {
		n++
	}
	wctx, stop := context.WithCancel(ctx)
	depth := s.d.watchQueue(wctx)
	r := s.drive(ctx, e, n)
	stop()
	pl.loop, pl.queueMax = r.loop, <-depth
	s.check(e, r, o)
	if pl.counters, err = s.d.counters(ctx); err != nil {
		return nil, err
	}
	simWorkers := max(1, e.nproc/service.DefaultServerConfig().Workers)
	for i := n; i < len(s.ops) && (i == n || time.Since(start) < e.window); i++ {
		op, req := s.ops[i], int64(i)
		switch op.ev.Kind {
		case workload.KindOffsets:
			err = replayOffsets(ctx, rec, s.d, op.off, req, &pl, o)
		case workload.KindCompile:
			err = s.replayCompile(rec, op, req, &pl, o)
		default:
			err = s.replayJob(ctx, e, op, req, simWorkers, &pl, o)
		}
		if err != nil {
			return nil, err
		}
		o.Attempted++
	}
	o.perLayer(rec, &pl)
	return o, nil
}

func (s *mixSetup) replayCompile(rec *recorder, op mixOp, req int64, pl *layerCounts, o *outcome) error {
	w, _ := workloads.ByName(op.ev.Program)
	root := rec.begin("compile.request", -1, req)
	defer rec.end(root)
	pr, err := compileProgram(rec, root, req, w.Name, w.Source, op.cfg.Apply(sim.DefaultConfig()))
	if err != nil {
		return err
	}
	pl.addCompiled(pr)
	sp := rec.begin("service.compile_handler", root, req)
	rr, err := s.d.serve(http.MethodPost, "/"+api.V1+"/compile", &api.CompileRequest{Workload: op.ev.Program, Config: op.cfg})
	rec.end(sp)
	if err != nil {
		return err
	}
	var resp api.CompileResponse
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &resp) != nil {
		return fmt.Errorf("compile handler: status %d: %s", rr.Code, rr.Body.String())
	}
	tag := "miss"
	if resp.Cached {
		tag = "hit"
	}
	rec.tag(sp, tag)
	o.check(compareCompile(&resp, pr))
	return nil
}

func (s *mixSetup) replayJob(ctx context.Context, e *env, op mixOp, req int64, simWorkers int, pl *layerCounts, o *outcome) error {
	rec := e.rec
	root := rec.begin("simulate.request", -1, req)
	defer rec.end(root)
	sp := rec.begin("service.simulate_accept", root, req)
	rr, err := s.d.serve(http.MethodPost, "/"+api.V1+"/simulate", s.simulateRequest(op))
	rec.end(sp)
	if err != nil {
		return err
	}
	var jr api.JobResponse
	if rr.Code != http.StatusAccepted || json.Unmarshal(rr.Body.Bytes(), &jr) != nil {
		return fmt.Errorf("simulate handler: status %d: %s", rr.Code, rr.Body.String())
	}
	for jr.State != api.JobDone {
		if jr.State == api.JobFailed {
			return fmt.Errorf("job %s failed: %s", jr.JobID, jr.Error)
		}
		time.Sleep(5 * time.Millisecond)
		next, err := s.d.cli.JobStatus(ctx, jr.JobID)
		if err != nil {
			return err
		}
		jr = *next
	}
	if jr.Report == nil {
		return fmt.Errorf("job %s finished without a report", jr.JobID)
	}
	o.check(e.gold.checkJob(op.call.key(), jr.Report))
	in, err := op.call.prepare(rec, root, req, e.nproc)
	if err != nil {
		return err
	}
	rep, err := pl.simulate(ctx, rec, root, req, in, op.call.policy, simWorkers)
	if err != nil {
		return err
	}
	pl.addTrace(in)
	o.check(e.gold.checkReport(op.call.key(), rep))
	return nil
}
