// Package service implements floptd: a long-running HTTP daemon that
// turns the offline compilation pipeline into an online layout service.
// It compiles submitted DSL programs once per content hash (singleflight
// + LRU, the exp.Runner cache discipline applied to a server), answers
// batch element→file-offset queries on the hot path through the
// layout.Strider closed form, and runs simulations as asynchronous jobs
// on a bounded worker pool with queue backpressure and graceful drain.
// Everything is stdlib-only; /metrics is backed by internal/obs.
//
// Routes:
//
//	POST /v1/compile               compile (or dedup) a program, returns a stable layout ID
//	POST /v1/layouts/{id}/offsets  batch element→offset queries as affine segments
//	POST /v1/simulate              enqueue an async simulation job (202, or 429 when full)
//	GET  /v1/jobs/{id}             poll job status and the finished report
//	GET  /healthz                  liveness + queue/cache occupancy
//	GET  /metrics                  Prometheus-format counters, gauges, latency histograms
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"flopt"
	"flopt/internal/cluster"
	"flopt/internal/memo"
	"flopt/internal/poly"
	"flopt/internal/service/api"
	"flopt/internal/sim"
	"flopt/internal/version"
	"flopt/internal/workload"
	"flopt/internal/workloads"
)

// Config sizes the service. The zero value is not runnable; start from
// DefaultServerConfig.
type Config struct {
	// CacheEntries bounds the compiled-layout LRU.
	CacheEntries int
	// Workers is the simulate worker-pool width.
	Workers int
	// QueueDepth bounds the pending-job queue; a full queue answers 429.
	QueueDepth int
	// DataDir roots the durability journals (layout snapshot + WAL, job
	// ledger). Empty disables persistence: state is memory-only, as it
	// was before the journals existed.
	DataDir string
	// RecordPath, when set, makes the daemon write every successfully
	// served compile/offsets/simulate request as one line of a
	// schema-versioned JSONL workload trace (internal/workload), which
	// `floptd -loadgen -replay` and exptab replay bit-identically.
	// Requests marked api.HeaderNoRecord are excluded.
	RecordPath string
	// RequestTimeout is the per-request deadline plumbed into every
	// handler's context; 0 disables it.
	RequestTimeout time.Duration
	// ChaosIntensity > 0 enables the seeded fault-injection middleware
	// (delays, errors, drops, journal disk faults) at that intensity in
	// (0, 1]; ChaosSeed fixes its decision stream.
	ChaosIntensity float64
	ChaosSeed      int64
	// Cluster, when set, makes this daemon one member of a static
	// roster: layout IDs route to owners over a consistent-hash ring,
	// offset misses fill from peers, and simulate jobs place onto the
	// least-loaded member. Nil runs the classic single-node daemon.
	Cluster *ClusterConfig
}

// DefaultServerConfig returns the sizing floptd starts with.
func DefaultServerConfig() Config {
	return Config{
		CacheEntries:   128,
		Workers:        2,
		QueueDepth:     64,
		RequestTimeout: 30 * time.Second,
	}
}

// Fixed limits of every daemon. The base platform compiled against is
// sim.DefaultConfig(); per-request config overrides apply on top of it.
const (
	// retainedJobs bounds the finished-job records kept for polling.
	retainedJobs = 1024
	// compileWait is how long a compile request waits for an in-flight
	// build before answering 503 (the build itself continues).
	compileWait = 30 * time.Second
	// simTimeout is the per-job simulation deadline.
	simTimeout = 120 * time.Second
	// walkBudget caps the per-request element count offset queries may
	// resolve through the per-element fallback (the Strider closed form
	// is exempt: it is O(segments) regardless of count).
	walkBudget = 1 << 20
	// maxBodyBytes caps request bodies.
	maxBodyBytes = 1 << 20
	// admissionBreakerThreshold consecutive simulate-job failures open
	// the admission breaker, peerBreakerThreshold consecutive transport
	// failures a peer's; either stays open for breakerCooldown before
	// admitting a half-open probe.
	admissionBreakerThreshold = 5
	peerBreakerThreshold      = 3
	breakerCooldown           = 5 * time.Second
	// retryBudgetTokens is the retry token-bucket capacity: requests
	// declaring X-Retry-Attempt ≥ 1 each consume a token, refilled at a
	// fraction of first-attempt traffic.
	retryBudgetTokens = 64
)

// Server is the service instance: compile cache, job pool, durability
// journals, admission control, metrics, and the HTTP surface over them.
// Create with New, serve Handler, call Drain then Close on shutdown.
type Server struct {
	cfg Config
	met *metrics
	// cache maps layout IDs to entries (see compileCached). Its Has
	// answers true from the moment a build starts, before the build
	// journals its record, so a layout snapshot filtering on it never
	// drops a layout that is, or is becoming, resident.
	cache   *memo.Cache[string, *compiled]
	jobs    *jobPool
	persist *persister
	chaos   *chaos
	breaker *cluster.Breaker
	retry   *retryBudget
	clu     *clusterNode // nil outside cluster mode
	rec     *workload.TraceWriter
	mux     *http.ServeMux
	handler http.Handler
	start   time.Time
}

// New builds a Server, recovers journaled state when cfg.DataDir is set,
// and starts the worker pool. Recovered accepted-but-unfinished jobs are
// already re-enqueued when New returns.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, met: newMetrics(), start: time.Now()}
	s.chaos = newChaos(cfg.ChaosSeed, cfg.ChaosIntensity, s.met)
	s.breaker = newAdmissionBreaker(s.met)
	s.retry = newRetryBudget()
	s.cache = memo.New[string, *compiled](cfg.CacheEntries, nil, func(*compiled) { s.met.inc(mCompileEvictions) })
	if cfg.RecordPath != "" {
		rec, err := workload.NewTraceWriter(cfg.RecordPath)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.rec = rec
	}
	if cfg.DataDir != "" {
		p, err := newPersister(cfg.DataDir, s.met)
		if err != nil {
			if s.rec != nil {
				s.rec.Close()
			}
			return nil, err
		}
		s.persist = p
		if s.chaos != nil {
			p.failWrite = s.chaos.diskFault
		}
	}
	var idPrefix string
	if cfg.Cluster != nil {
		cn, err := newClusterNode(*cfg.Cluster, 4*cfg.CacheEntries, s.met)
		if err != nil {
			if s.persist != nil {
				s.persist.close()
			}
			if s.rec != nil {
				s.rec.Close()
			}
			return nil, err
		}
		s.clu = cn
		// Namespace job IDs by node ("job-<node>-<n>") so any member can
		// route a status poll to the node running the job.
		idPrefix = cfg.Cluster.Self + "-"
	}
	s.jobs = newJobPool(jobPoolConfig{
		workers:    cfg.Workers,
		queueDepth: cfg.QueueDepth,
		maxJobs:    retainedJobs,
		idPrefix:   idPrefix,
		timeout:    simTimeout,
		met:        s.met,
		run:        s.runJob,
		journal:    s.journalJob,
		onResult:   func(err error) { s.breaker.Record(err == nil) },
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	s.mux.HandleFunc("GET /v1/layouts/{id}", s.instrument("layouts", s.handleLayoutRecord))
	s.mux.HandleFunc("POST /v1/layouts/{id}/offsets", s.instrument("offsets", s.handleOffsets))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	s.mux.HandleFunc("GET /v1/cluster/status", s.instrument("cluster", s.handleClusterStatus))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.withMiddleware(s.mux)
	if s.persist != nil {
		if err := s.recoverState(); err != nil {
			s.persist.close()
			if s.rec != nil {
				s.rec.Close()
			}
			return nil, err
		}
	}
	if s.clu != nil {
		// Gossip starts after recovery so the first load snapshot peers
		// see already reflects the re-enqueued backlog.
		s.clu.startGossip(s.selfLoad)
	}
	return s, nil
}

// Handler returns the HTTP surface (the mux behind the middleware
// chain: panic recovery, chaos injection, retry budget, deadlines).
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops accepting simulation jobs and waits for every accepted job
// to finish (or ctx to expire). Call after http.Server.Shutdown so no
// new submissions race the drain.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.drain(ctx) }

// Close compacts and closes the durability journals (no-op without a
// data dir). Call after Drain; the journals then hold a terminal record
// for every retained job and a snapshot of the resident layout catalog.
func (s *Server) Close() error {
	if s.clu != nil {
		s.clu.stopGossip()
	}
	if s.rec != nil {
		if err := s.rec.Close(); err != nil {
			s.met.inc(mTraceErrors)
		}
	}
	if s.persist == nil {
		return nil
	}
	if err := s.persist.snapshotLayouts(s.cache.Has); err != nil {
		s.met.inc(mJournalErrors)
	}
	if err := s.persist.compactJobs(s.jobs.records()); err != nil {
		s.met.inc(mJournalErrors)
	}
	return s.persist.close()
}

// journalJob is the pool's persistence hook; without a data dir it
// accepts everything.
func (s *Server) journalJob(rec jobRecord) error {
	if s.persist == nil {
		return nil
	}
	return s.persist.appendJob(rec)
}

// recoverState replays the journals: every journaled layout is
// recompiled (content addressing makes the recomputed ID a checksum of
// the replay), terminal jobs are restored as pollable records, and
// accepted-but-unfinished jobs are re-enqueued. Finishes by compacting
// both journals so restart cost stays proportional to live state.
func (s *Server) recoverState() error {
	recs, err := s.persist.loadLayouts()
	if err != nil {
		return fmt.Errorf("service: layout journal replay: %w", err)
	}
	s.persist.setReplaying(true)
	recovered := 0
	for _, rec := range recs {
		cfg := rec.Config.Apply(sim.DefaultConfig())
		if err := cfg.Validate(); err != nil {
			s.met.inc(mRecoverySkipped)
			continue
		}
		ent, _, err := s.compileCached(context.Background(), rec.Source, cfg, mCompileBuilds)
		if err != nil || ent.ID != rec.ID {
			// Unreplayable (base platform drifted, source rejected by a
			// newer compiler): content addressing means the record is
			// stale, not the catalog corrupt. Skip and count.
			s.met.inc(mRecoverySkipped)
			continue
		}
		recovered++
	}
	s.persist.setReplaying(false)
	s.met.add(mLayoutsRecovered, int64(recovered))

	jrecs, err := s.persist.loadJobs()
	if err != nil {
		return fmt.Errorf("service: job journal replay: %w", err)
	}
	type ledger struct {
		accept   *jobRecord
		terminal *jobRecord
	}
	byID := map[string]*ledger{}
	var order []string
	for i := range jrecs {
		rec := &jrecs[i]
		switch rec.Op {
		case jobOpAccept:
			if byID[rec.ID] == nil {
				byID[rec.ID] = &ledger{accept: rec}
				order = append(order, rec.ID)
			}
		case jobOpDone:
			if l := byID[rec.ID]; l != nil {
				l.terminal = rec
			}
		}
	}
	rerun := 0
	for _, id := range order {
		l := byID[id]
		j := &job{id: id, layoutID: l.accept.Layout}
		if l.accept.Req != nil {
			j.req = *l.accept.Req
		}
		if l.terminal != nil {
			j.state, j.errMsg = l.terminal.State, l.terminal.Err
			j.doneAt = time.Now()
			s.jobs.restore(j)
			continue
		}
		ent, ok := s.cache.Lookup(j.layoutID)
		if !ok {
			// The job's layout did not survive replay (skipped record or
			// LRU pressure during recovery): terminal failure beats a
			// job stuck queued forever.
			j.state = api.JobFailed
			j.errMsg = fmt.Sprintf("layout %s not recovered after restart", j.layoutID)
			j.doneAt = time.Now()
			s.jobs.restore(j)
			s.met.inc(mRecoverySkipped)
			continue
		}
		j.ent = ent
		s.jobs.resubmit(j)
		rerun++
	}
	s.met.add(mJobsRecovered, int64(rerun))

	if err := s.persist.snapshotLayouts(s.cache.Has); err != nil {
		s.met.inc(mJournalErrors)
	}
	if err := s.persist.compactJobs(s.jobs.records()); err != nil {
		s.met.inc(mJournalErrors)
	}
	return nil
}

// Metrics exposes the counter set (tests and floptd logging).
func (s *Server) Metrics() *metrics { return s.met }

// ---- handlers ----

// instrument wraps a handler with the request counter and the per-route
// latency histogram. Requests declaring an SLO class (the workload
// subsystem's api.HeaderSLOClass) additionally feed a per-class
// histogram, so a spec's slo_class is observable on /metrics — on the
// executing node, since cluster forwards propagate the header.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inc(mHTTPRequests)
		h(w, r)
		us := time.Since(start).Microseconds()
		s.met.observe(route, us)
		if class := sloClass(r); class != "" {
			s.met.observeSLO(class, us)
		}
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// fail writes the v1 error envelope for status with no retry hint.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.failEnvelope(w, status, 0, fmt.Sprintf(format, args...))
}

// failEnvelope is the single place an error response is rendered: every
// failure, whatever its origin, leaves as the api.Error envelope
// {error, code, retry_after_s} (the retry hint is mirrored into the
// Retry-After header when positive).
func (s *Server) failEnvelope(w http.ResponseWriter, status, retryAfter int, msg string) {
	s.met.inc(mHTTPErrors)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
	}
	s.writeJSON(w, status, api.Error{Message: msg, Code: api.CodeForStatus(status), RetryAfterS: retryAfter})
}

// decode parses the JSON body into v under the body-size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.met.inc(mCompileRequests)
	var req api.CompileRequest
	if !s.decode(w, r, &req) {
		s.met.inc(mCompileErrors)
		return
	}
	source := req.Source
	switch {
	case req.Source != "" && req.Workload != "":
		s.met.inc(mCompileErrors)
		s.fail(w, http.StatusBadRequest, "set exactly one of source and workload")
		return
	case req.Workload != "":
		wl, ok := workloads.ByName(req.Workload)
		if !ok {
			s.met.inc(mCompileErrors)
			s.fail(w, http.StatusBadRequest, "unknown workload %q (have %v)", req.Workload, workloads.Names())
			return
		}
		source = wl.Source
	case req.Source == "":
		s.met.inc(mCompileErrors)
		s.fail(w, http.StatusBadRequest, "set exactly one of source and workload")
		return
	}
	cfg := req.Config.Apply(sim.DefaultConfig())
	if err := cfg.Validate(); err != nil {
		s.met.inc(mCompileErrors)
		s.fail(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}

	// Cluster routing: a non-owner forwards the compile to the layout's
	// ring owner (the cluster-wide singleflight), unless the request
	// already crossed the cluster once or the owner is unreachable.
	if s.clusterEnabled() {
		if _, fromPeer := forwarded(r); !fromPeer && s.forwardCompile(propagateHeaders(r.Context(), r), w, source, req.Config, cfg) {
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), compileWait)
	defer cancel()
	ent, cached, err := s.compileCached(ctx, source, cfg, mCompileBuilds)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The build keeps running; resubmitting the same program later
		// joins or hits it.
		s.met.inc(mCompileErrors)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, "compilation still in progress, retry")
		return
	case errors.Is(err, flopt.ErrBadProgram), errors.Is(err, flopt.ErrBadConfig):
		s.met.inc(mCompileErrors)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, errJournal):
		// Accepted must mean durable: a layout whose record cannot be
		// journaled is not cached and not served.
		s.met.inc(mCompileErrors)
		s.failErr(w, unavailablef(1, "compile not durable: %v", err))
		return
	default:
		// Optimizer rejections (e.g. degenerate hierarchies) are request
		// problems too: the same submission will always fail.
		s.met.inc(mCompileErrors)
		s.fail(w, http.StatusUnprocessableEntity, "optimization failed: %v", err)
		return
	}
	s.maybeSnapshot()

	resp := api.CompileResponse{
		LayoutID: ent.ID,
		Cached:   cached,
		Pattern:  ent.Result.Pattern.String(),
		Arrays:   make(map[string]api.ArrayInfo, len(ent.Program.Arrays)),
		Node:     s.nodeID(),
	}
	for _, a := range ent.Program.Arrays {
		l := ent.Result.Layouts[a.Name]
		tr := ent.Result.Transforms[a.Name]
		resp.Arrays[a.Name] = api.ArrayInfo{
			Dims:      a.Dims,
			Layout:    l.Name(),
			FileElems: l.SizeElems(),
			Optimized: tr != nil && tr.Optimized(),
		}
	}
	resp.Optimized, resp.TotalArrays = ent.Result.OptimizedCount()
	s.recordLayout(r, kindCompile, ent)
	s.writeJSON(w, http.StatusOK, resp)
}

// build is the cache's compile function: parse + optimize, plus the
// array index the offset path needs. The layout record is journaled
// before the entry can enter the cache — a journal failure fails the
// build, so every ID a client ever sees survives a restart.
func (s *Server) build(source string, cfg sim.Config) (*compiled, error) {
	p, err := flopt.Compile("program", source)
	if err != nil {
		return nil, err
	}
	res, err := flopt.Optimize(p, cfg)
	if err != nil {
		return nil, err
	}
	ent := &compiled{Source: source, Program: p, Result: res, Cfg: cfg,
		arrays: make(map[string]*poly.Array, len(p.Arrays))}
	for _, a := range p.Arrays {
		ent.arrays[a.Name] = a
	}
	if s.persist != nil {
		rec := api.LayoutRecord{ID: layoutID(source, cfg), Source: source, Config: api.FromConfig(cfg)}
		if err := s.persist.appendLayout(rec); err != nil {
			return nil, err
		}
	}
	return ent, nil
}

// maybeSnapshot compacts the layout journal once the WAL outgrows the
// catalog it describes (4× the LRU capacity, at least 64 records).
func (s *Server) maybeSnapshot() {
	if s.persist == nil {
		return
	}
	threshold := 4 * s.cfg.CacheEntries
	if threshold < 64 {
		threshold = 64
	}
	if s.persist.walSize() < threshold {
		return
	}
	if err := s.persist.snapshotLayouts(s.cache.Has); err != nil {
		s.met.inc(mJournalErrors)
	}
}

func (s *Server) handleOffsets(w http.ResponseWriter, r *http.Request) {
	s.met.inc(mOffsetsRequests)
	id := r.PathValue("id")
	ent, filled, err := s.lookupOrFill(r.Context(), id)
	if err != nil {
		s.met.inc(mOffsetsErrors)
		s.failErr(w, err)
		return
	}
	var req api.OffsetsRequest
	if !s.decode(w, r, &req) {
		s.met.inc(mOffsetsErrors)
		return
	}
	l, a, ok := ent.layoutFor(req.Array)
	if !ok {
		s.met.inc(mOffsetsErrors)
		s.fail(w, http.StatusBadRequest, "layout %s has no array %q", id, req.Array)
		return
	}
	if len(req.Queries) == 0 {
		s.met.inc(mOffsetsErrors)
		s.fail(w, http.StatusBadRequest, "empty query batch")
		return
	}
	resp := api.OffsetsResponse{LayoutID: id, Array: req.Array, FileElems: l.SizeElems(),
		Results: make([]api.OffsetResult, len(req.Queries)), Filled: filled}
	budget := int64(walkBudget)
	var queries, segs, strided, walked int64
	for i, q := range req.Queries {
		// The per-request deadline aborts oversized batches between
		// queries instead of pinning a worker past it.
		if err := r.Context().Err(); err != nil {
			s.met.inc(mOffsetsErrors)
			s.met.add(mOffsetsQueries, queries)
			s.failErr(w, unavailablef(1, "request deadline exceeded after %d of %d queries", i, len(req.Queries)))
			return
		}
		res, used, err := resolveQuery(l, a, q, budget)
		if err != nil {
			s.met.inc(mOffsetsErrors)
			s.met.add(mOffsetsQueries, queries)
			s.fail(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		budget -= used
		walked += used
		queries++
		segs += int64(len(res.Segs))
		if res.Strided {
			strided++
		}
		resp.Results[i] = res
	}
	s.met.add(mOffsetsQueries, queries)
	s.met.add(mOffsetsSegments, segs)
	s.met.add(mOffsetsStrided, strided)
	s.met.add(mOffsetsWalked, walked)
	s.recordLayout(r, kindOffsets, ent)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// Shed before any work while the breaker is open: the expensive
	// pipeline is protected, the cheap offsets path keeps flowing.
	if !s.breaker.Allow() {
		s.met.inc(mShedRequests)
		s.failErr(w, unavailablef(s.jobs.retryAfterSeconds(),
			"simulate circuit open: recent jobs failed, shedding until a probe succeeds"))
		return
	}
	var req api.SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Cluster placement: a first-touch submission goes to the
	// least-loaded member (gossiped backlog, ties toward self); a
	// peer-forwarded one runs here unconditionally.
	if s.clusterEnabled() {
		if _, fromPeer := forwarded(r); !fromPeer && s.forwardSimulate(w, r, &req) {
			return
		}
	}
	ent, _, err := s.lookupOrFill(r.Context(), req.LayoutID)
	if err != nil {
		s.failErr(w, err)
		return
	}
	cfg := ent.Cfg
	if req.Policy != "" {
		cfg.Policy = req.Policy
	}
	cfg.FaultIntensity, cfg.FaultSeed = req.Faults, req.Seed
	if err := cfg.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid simulate config: %v", err)
		return
	}
	id, err := s.jobs.submit(ent, req)
	switch {
	case errors.Is(err, errQueueFull):
		s.met.inc(mJobsRejected)
		s.failErr(w, overloadf(s.jobs.retryAfterSeconds(),
			"simulate queue full (depth %d), retry", s.cfg.QueueDepth))
		return
	case errors.Is(err, errDraining):
		s.fail(w, http.StatusServiceUnavailable, "shutting down, not accepting jobs")
		return
	case errors.Is(err, errJournal):
		// The accept record could not be persisted, so the job was not
		// accepted: acceptance is the durability promise.
		s.failErr(w, unavailablef(1, "job not durable: %v", err))
		return
	case err != nil:
		s.failErr(w, err)
		return
	}
	s.met.inc(mJobsSubmitted)
	s.recordLayout(r, kindSimulate, ent)
	w.Header().Set("Location", "/v1/jobs/"+id)
	s.writeJSON(w, http.StatusAccepted, api.JobResponse{JobID: id, State: api.JobQueued, Node: s.nodeID()})
}

// runJob executes one simulation job through the public Run API.
func (s *Server) runJob(ctx context.Context, j *job) (*api.SimReport, error) {
	cfg := j.ent.Cfg
	if j.req.Policy != "" {
		cfg.Policy = j.req.Policy
	}
	var opts []flopt.RunOption
	if j.req.Optimized == nil || *j.req.Optimized {
		opts = append(opts, flopt.WithResult(j.ent.Result))
	}
	if j.req.Faults > 0 {
		cfg.FaultIntensity, cfg.FaultSeed = j.req.Faults, j.req.Seed
	}
	rep, err := flopt.Run(ctx, j.ent.Program, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return &api.SimReport{
		ExecTimeUS:       rep.ExecTimeUS,
		Accesses:         rep.Accesses,
		DiskReads:        rep.DiskReads,
		IOMissPct:        100 * rep.IOMissRate(),
		StorageMissPct:   100 * rep.StorageMissRate(),
		Policy:           rep.PolicyName,
		Retries:          rep.Retries,
		Timeouts:         rep.Timeouts,
		DegradedReads:    rep.DegradedReads,
		FailedOverBlocks: rep.FailedOverBlocks,
	}, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.status(id)
	if !ok {
		// Cluster mode: the node that runs a job is embedded in its ID
		// ("job-<node>-<n>"), so any member can serve the poll by proxy.
		if s.clusterEnabled() {
			if _, fromPeer := forwarded(r); !fromPeer && s.proxyJobStatus(w, r, id) {
				return
			}
		}
		s.fail(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, api.JobResponse{JobID: j.id, State: j.state, Report: j.report, Error: j.errMsg, Node: s.nodeID()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"version":          version.Version,
		"uptime_s":         int64(time.Since(s.start).Seconds()),
		"queue_depth":      s.jobs.depth(),
		"layouts_resident": s.cache.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.writeExposition(w)
}
