package sim

import (
	"context"
	"math/rand"

	"flopt/internal/fault"
	"flopt/internal/obs"
	"flopt/internal/storage/cache"
	"flopt/internal/storage/disk"
	"flopt/internal/storage/stripe"
	"flopt/internal/trace"
)

// Report summarizes one simulated execution.
type Report struct {
	Config Config
	// ExecTimeUS is the application execution time: the barrier time
	// after the last nest (max over threads).
	ExecTimeUS int64
	// ThreadTimeUS holds each thread's final virtual time.
	ThreadTimeUS []int64
	// IO and Storage are the aggregated cache statistics per level.
	IO, Storage cache.Stats
	// DiskReads and DiskSeqReads count device-level block reads.
	DiskReads, DiskSeqReads int64
	// DiskBusyUS is the summed device service time across disks.
	DiskBusyUS int64
	// Accesses is the total number of block requests issued.
	Accesses int64
	// Demotions counts DEMOTE-LRU downward transfers.
	Demotions int64
	// Prefetches counts storage-node readahead fills.
	Prefetches int64
	// PolicyName records the cache policy used.
	PolicyName string

	// Degraded-mode statistics (all zero on a healthy platform).
	// Retries counts re-issued disk read attempts after transient errors.
	Retries int64
	// Timeouts counts requests whose retry budget or deadline expired.
	Timeouts int64
	// DegradedReads counts reads served by replica reconstruction after a
	// timeout.
	DegradedReads int64
	// FailedOverBlocks counts requests rerouted to the replica stripe
	// because the owning storage node was unreachable.
	FailedOverBlocks int64

	// Metrics is the observability snapshot of the run — per-layer hit
	// breakdowns keyed by array and thread, per-node device metrics,
	// latency histograms, and the event summary. Nil unless Config.Metrics
	// was set.
	Metrics *obs.Snapshot
}

// IOMissRate and StorageMissRate expose the Table 2/3 metrics.
func (r *Report) IOMissRate() float64      { return r.IO.MissRate() }
func (r *Report) StorageMissRate() float64 { return r.Storage.MissRate() }

// Machine is an instantiated platform ready to run traces.
type Machine struct {
	cfg     Config
	striper stripe.Striping
	disks   []*disk.Disk
	mgr     cache.Manager
	// ioOf[t] caches the thread→I/O node routing.
	ioOf []int
	// fileBlocks bounds storage-node readahead per file (optional; see
	// SetFileBlocks). Readahead past the recorded end is suppressed.
	fileBlocks []int64
	// streams[s] tracks, per file, the set of "expected next" local block
	// indices of in-flight sequential streams on storage node s — a
	// multi-stream readahead detector (one file serves one stream per
	// client thread, so a single last-position would never fire).
	streams []streamTable
	// prefetches counts readahead fills performed.
	prefetches int64

	// faults is the resolved fault schedule; nil on a healthy platform.
	faults *fault.Schedule
	// rng drives the transient-error stream. serve runs serially inside
	// Run, so a single seeded source replays identically regardless of
	// how many runs execute concurrently on other Machines.
	rng *rand.Rand
	// Effective degraded-mode retry policy (ns), resolved from cfg with
	// the package defaults filling zero fields.
	maxRetries           int
	backoffNS, timeoutNS int64
	// Degraded-mode counters (see Report).
	retries, timeouts, degradedReads, failedOver int64

	// obs is the effective observer (machine-owned metrics teed with any
	// user observer); obsOn caches whether it is non-Nop so the healthy
	// hot path pays a single predictable branch per request.
	obs   obs.Observer
	obsOn bool
	// userObs is the observer registered via SetObserver, kept so the tee
	// can be rebuilt.
	userObs obs.Observer
	// metrics is the machine-owned collector behind Config.Metrics; its
	// snapshot lands on Report.Metrics.
	metrics *obs.Metrics
	// fileNames labels file ids with array names in metric snapshots.
	fileNames []string
	// lastEvictions is the hierarchy-wide eviction count at the previous
	// storm-detector sample (see evictionSampleEvery).
	lastEvictions int64
}

// SetFileBlocks records each file's length in blocks so readahead stops at
// end of file. Without it, readahead is unbounded (phantom blocks may
// pollute the storage caches).
func (m *Machine) SetFileBlocks(blocks []int64) {
	m.fileBlocks = append([]int64(nil), blocks...)
}

// SetWorkers does nothing. It once chose a node-sharded engine that was
// slower than the serial scheduler on the hosts it was measured on and
// was removed (DESIGN.md §13). The method stays only because the
// benchmark module still calls it; it goes once that call is dropped.
//
// Deprecated: every run uses the serial scheduler.
func (m *Machine) SetWorkers(int) {}

// NewMachine builds the platform. For the "karma" policy, hints must be
// supplied (see GenerateHints); other policies ignore them.
func NewMachine(cfg Config, hints []cache.RangeHint) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	mgr, err := cache.NewByName(cfg.Policy, cfg.IONodes, cfg.StorageNodes,
		cfg.IOCacheBlocks, cfg.StorageCacheBlocks, hints)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     cfg,
		striper: stripe.New(cfg.StorageNodes),
		mgr:     mgr,
		ioOf:    make([]int, cfg.Threads()),
	}
	for i := 0; i < cfg.StorageNodes; i++ {
		m.disks = append(m.disks, disk.New(cfg.Disk))
		m.streams = append(m.streams, streamTable{set: make(map[uint64]struct{})})
	}
	for t := range m.ioOf {
		m.ioOf[t] = cfg.IONodeOf(t)
	}
	if plan := cfg.FaultPlan(); !plan.Healthy() {
		if err := plan.Validate(cfg.StorageNodes); err != nil {
			return nil, err
		}
		m.faults = plan
		m.rng = rand.New(rand.NewSource(cfg.FaultSeed))
		m.maxRetries = cfg.MaxRetries
		if m.maxRetries == 0 {
			m.maxRetries = DefaultMaxRetries
		}
		m.backoffNS = 1000 * cfg.RetryBackoffUS
		if m.backoffNS == 0 {
			m.backoffNS = 1000 * DefaultRetryBackoffUS
		}
		m.timeoutNS = 1000 * cfg.RequestTimeoutUS
		if m.timeoutNS == 0 {
			m.timeoutNS = 1000 * DefaultRequestTimeoutUS
		}
	}
	if cfg.Metrics {
		m.metrics = obs.NewMetrics()
	}
	m.SetObserver(nil)
	return m, nil
}

// SetObserver registers o to receive the machine's profiling callbacks
// and structured events, teed with the machine-owned metrics collector
// when Config.Metrics is set; nil detaches the user observer. Observers
// are driven serially by this machine's virtual clock, so they need no
// locking and their output is bit-identical across host worker counts.
func (m *Machine) SetObserver(o obs.Observer) {
	m.userObs = o
	var eff obs.Observer
	if m.metrics != nil {
		eff = obs.Tee(m.metrics, o)
	} else {
		eff = obs.Tee(o)
	}
	m.obs = eff
	_, nop := eff.(obs.Nop)
	m.obsOn = !nop
	for i, d := range m.disks {
		if !m.obsOn {
			d.SetServiceHook(nil)
			continue
		}
		node := i
		d.SetServiceHook(func(serviceNS int64, sequential bool) {
			m.obs.DiskService(node, serviceNS, sequential)
		})
	}
}

// Metrics returns the machine-owned metrics collector, or nil when
// Config.Metrics is off. It keeps accumulating across Run calls.
func (m *Machine) Metrics() *obs.Metrics { return m.metrics }

// SetFileNames labels file ids with array names in metric snapshots;
// unlabeled files appear as "file<N>".
func (m *Machine) SetFileNames(names []string) {
	m.fileNames = append(m.fileNames[:0], names...)
	if m.metrics != nil {
		m.metrics.SetArrayNames(m.fileNames)
	}
}

// finishMetrics folds the machine's end-of-run state into the metrics
// collector and snapshots it onto the report.
func (m *Machine) finishMetrics(rep *Report) {
	m.metrics.SetArrayNames(m.fileNames)
	if len(m.fileBlocks) > 0 {
		primaries := make([]int64, m.cfg.StorageNodes)
		for _, nb := range m.fileBlocks {
			for i, c := range m.striper.Spread(nb) {
				primaries[i] += c
			}
		}
		m.metrics.SetNodePrimaryBlocks(primaries)
	}
	if nsr, ok := m.mgr.(cache.NodeStatsReporter); ok {
		m.metrics.SetCacheNodeStats(toCacheNodeStats(nsr.IONodeStats()), toCacheNodeStats(nsr.StorageNodeStats()))
	}
	// Registry counters mirror the machine's cumulative counters; Add the
	// delta so repeated Runs on one machine stay consistent.
	reg := m.metrics.Registry()
	for _, c := range []struct {
		name string
		val  int64
	}{
		{"prefetches", m.prefetches},
		{"retries", m.retries},
		{"timeouts", m.timeouts},
		{"degraded_reads", m.degradedReads},
		{"failed_over_blocks", m.failedOver},
		{"demotions", rep.Demotions},
	} {
		ctr := reg.Counter(c.name)
		ctr.Add(c.val - ctr.Value())
	}
	reg.Gauge("exec_time_us").Set(float64(rep.ExecTimeUS))
	rep.Metrics = m.metrics.Snapshot()
}

// toCacheNodeStats mirrors cache.Stats into the obs package's dependency-
// free counter form.
func toCacheNodeStats(in []cache.Stats) []obs.CacheNodeStats {
	out := make([]obs.CacheNodeStats, len(in))
	for i, s := range in {
		out[i] = obs.CacheNodeStats{Accesses: s.Accesses, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions}
	}
	return out
}

// Reset clears all caches, disks and counters for a fresh cold run. The
// transient-error stream is reseeded, so a Reset machine replays the same
// faults the next Run.
func (m *Machine) Reset() {
	m.mgr.Reset()
	for i, d := range m.disks {
		d.Reset()
		m.streams[i].reset()
	}
	m.prefetches = 0
	if m.faults != nil {
		m.rng = rand.New(rand.NewSource(m.cfg.FaultSeed))
	}
	m.retries, m.timeouts, m.degradedReads, m.failedOver = 0, 0, 0, 0
	m.lastEvictions = 0
}

// RunTraces is the tail every full run shares: it builds a machine for
// cfg, with KARMA hints generated from the traces when cfg.Policy is
// "karma", registers the block count and name of each file in ft,
// attaches o (when non-nil), and runs the traces cold under ctx.
func RunTraces(ctx context.Context, cfg Config, ft *trace.FileTable, traces []*trace.NestTrace, o obs.Observer) (*Report, error) {
	var hints []cache.RangeHint
	if cfg.Policy == "karma" {
		hints = GenerateHints(cfg, ft, traces)
	}
	m, err := NewMachine(cfg, hints)
	if err != nil {
		return nil, err
	}
	fileBlocks := make([]int64, len(ft.Names))
	for f := range fileBlocks {
		fileBlocks[f] = ft.Blocks(int32(f), cfg.BlockElems)
	}
	m.SetFileBlocks(fileBlocks)
	m.SetFileNames(ft.Names)
	if o != nil {
		m.SetObserver(o)
	}
	return m.RunContext(ctx, traces)
}

// Simulate is the one-shot convenience wrapper: build a machine, run the
// traces cold, return the report.
func Simulate(cfg Config, traces []*trace.NestTrace, hints []cache.RangeHint) (*Report, error) {
	m, err := NewMachine(cfg, hints)
	if err != nil {
		return nil, err
	}
	return m.Run(traces)
}
