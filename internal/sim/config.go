// Package sim is the evaluation platform of the reproduction: a
// deterministic, trace-driven discrete-event simulator of the three-tier
// cluster of Fig. 1 — compute nodes running threads, I/O nodes with storage
// caches, and storage nodes with caches and disks behind a PVFS-style
// striped file system. It substitutes for the paper's physical Linux
// cluster (see DESIGN.md §2).
package sim

import (
	"errors"
	"fmt"
	"slices"

	"flopt/internal/fault"
	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/storage/cache"
	"flopt/internal/storage/disk"
)

// ErrBadConfig is the sentinel wrapped by every Validate error: match
// configuration problems with errors.Is(err, sim.ErrBadConfig) instead of
// string inspection.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Config describes one platform instance. Capacities are in blocks; the
// block is both the cache management unit and the stripe unit (Table 1).
type Config struct {
	ComputeNodes int
	IONodes      int
	StorageNodes int
	// ThreadsPerCompute is 1 in the paper's default execution.
	ThreadsPerCompute int

	// BlockElems is the data block size in array elements.
	BlockElems int64
	// IOCacheBlocks / StorageCacheBlocks are per-cache capacities.
	IOCacheBlocks      int
	StorageCacheBlocks int

	Disk disk.Params

	// Per-hop latencies in microseconds.
	NetCIUS    int64 // compute node ↔ I/O node, per block
	NetISUS    int64 // I/O node ↔ storage node, per block
	CacheSvcUS int64 // cache lookup/service
	// CPUPerElemNS is the compute cost charged per array element touched,
	// modeling the computation interleaved with I/O. It is independent of
	// the file layout (the same elements are touched regardless of how
	// they are packed into blocks).
	CPUPerElemNS int64

	// Policy is the cache-hierarchy management scheme, one of
	// cache.Names(): "lru" (inclusive, the default; "" means "lru"),
	// "demote", "karma" or "mq". Validate rejects any other name.
	Policy string
	// ReadaheadBlocks enables storage-node readahead: each demand disk
	// read also pulls the next N sequential blocks of the file into the
	// storage cache (0 = off, the paper's base platform). The paper notes
	// the optimized layouts "can also help improve the effectiveness of
	// hardware I/O prefetching"; see exp.Prefetch.
	ReadaheadBlocks int
	// HintRangesPerFile controls KARMA hint granularity.
	HintRangesPerFile int

	// Mapping assigns threads to compute nodes (Fig. 7(b)); nil means the
	// identity mapping.
	Mapping *parallel.Mapping

	// FaultIntensity in [0, 1] enables deterministic fault injection: a
	// fault schedule (fail-slow and fail-stop disks, storage-node
	// outages, transient read errors) is generated from FaultSeed at this
	// intensity. 0 is the healthy platform.
	FaultIntensity float64
	// FaultSeed seeds both the schedule generation and the per-run
	// transient-error stream; identical seeds replay bit-identical runs.
	FaultSeed int64
	// FaultSchedule, when non-nil, is used verbatim instead of generating
	// one from (FaultSeed, FaultIntensity).
	FaultSchedule *fault.Schedule

	// MaxRetries bounds the retry attempts after a transient disk read
	// error (0 means the DefaultMaxRetries policy; negative is invalid).
	MaxRetries int
	// RetryBackoffUS is the base of the capped exponential backoff
	// between retries (0 means DefaultRetryBackoffUS).
	RetryBackoffUS int64
	// RequestTimeoutUS is the per-request deadline; when it expires the
	// read is served degraded from the replica stripe (0 means
	// DefaultRequestTimeoutUS).
	RequestTimeoutUS int64

	// Metrics attaches a machine-owned obs.Metrics collector to every run:
	// per-layer hit breakdowns keyed by array and thread, device service
	// histograms, and the structured event stream, snapshotted onto
	// Report.Metrics. Off by default — the healthy hot path then pays only
	// a single predictable branch per request.
	Metrics bool
}

// Default degraded-mode retry policy, applied where the corresponding
// Config field is zero: up to 4 retries, 500 µs base backoff (doubling,
// capped at 8× the base), 50 ms request deadline — a deadline a few times
// the positioned service time of the default disk, so a healthy queue
// never trips it.
const (
	DefaultMaxRetries       = 4
	DefaultRetryBackoffUS   = int64(500)
	DefaultRequestTimeoutUS = int64(50_000)
)

// FaultPlan resolves the effective fault schedule: the explicit
// FaultSchedule if set, a generated one if FaultIntensity > 0, nil when
// healthy.
func (c Config) FaultPlan() *fault.Schedule {
	if c.FaultSchedule != nil {
		return c.FaultSchedule
	}
	if c.FaultIntensity > 0 {
		return fault.Generate(c.FaultSeed, c.StorageNodes, c.FaultIntensity)
	}
	return nil
}

// DefaultConfig mirrors Table 1 at the simulator's element scale: the
// (64, 16, 4) node configuration, one thread per compute node, a
// storage cache twice the I/O cache, and caches small relative to the
// out-of-core working sets of the workloads.
func DefaultConfig() Config {
	return Config{
		ComputeNodes:       64,
		IONodes:            16,
		StorageNodes:       4,
		ThreadsPerCompute:  1,
		BlockElems:         64,
		IOCacheBlocks:      64,
		StorageCacheBlocks: 128,
		Disk:               disk.DefaultParams(),
		// Moving one 128 kB block over a shared gigabit-class link costs
		// on the order of a millisecond; these hop costs set the cache-hit
		// service time and keep the disk-miss penalty ratio in the range a
		// PVFS deployment actually sees (~an order of magnitude).
		NetCIUS:           800,
		NetISUS:           800,
		CacheSvcUS:        100,
		CPUPerElemNS:      400,
		Policy:            "lru",
		HintRangesPerFile: 64,
	}
}

// Threads returns the total thread count.
func (c Config) Threads() int { return c.ComputeNodes * c.ThreadsPerCompute }

// Validate checks the configuration for structural consistency. Every
// error it returns wraps ErrBadConfig.
func (c Config) Validate() error {
	if c.ComputeNodes < 1 || c.IONodes < 1 || c.StorageNodes < 1 {
		return fmt.Errorf("%w: node counts must be positive: (%d, %d, %d)",
			ErrBadConfig, c.ComputeNodes, c.IONodes, c.StorageNodes)
	}
	if c.ComputeNodes%c.IONodes != 0 {
		return fmt.Errorf("%w: compute nodes (%d) must be a multiple of I/O nodes (%d)",
			ErrBadConfig, c.ComputeNodes, c.IONodes)
	}
	if c.ThreadsPerCompute < 1 {
		return fmt.Errorf("%w: threads per compute node must be ≥ 1", ErrBadConfig)
	}
	if c.BlockElems < 1 {
		return fmt.Errorf("%w: block size must be ≥ 1 element", ErrBadConfig)
	}
	if c.IOCacheBlocks < 0 || c.StorageCacheBlocks < 0 {
		return fmt.Errorf("%w: cache capacities must be non-negative", ErrBadConfig)
	}
	if c.Policy != "" && !slices.Contains(cache.Names(), c.Policy) {
		return fmt.Errorf("%w: unknown cache policy %q (want one of %v)", ErrBadConfig, c.Policy, cache.Names())
	}
	if err := c.Disk.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.FaultIntensity < 0 || c.FaultIntensity > 1 {
		return fmt.Errorf("%w: fault intensity %v outside [0, 1]", ErrBadConfig, c.FaultIntensity)
	}
	if err := c.FaultSchedule.Validate(c.StorageNodes); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("%w: negative retry limit %d", ErrBadConfig, c.MaxRetries)
	}
	if c.RetryBackoffUS < 0 || c.RequestTimeoutUS < 0 {
		return fmt.Errorf("%w: negative retry backoff (%d µs) or request timeout (%d µs)",
			ErrBadConfig, c.RetryBackoffUS, c.RequestTimeoutUS)
	}
	if c.Mapping != nil {
		if c.Mapping.Len() != c.Threads() {
			return fmt.Errorf("%w: mapping covers %d threads, platform has %d",
				ErrBadConfig, c.Mapping.Len(), c.Threads())
		}
		if err := c.Mapping.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	return nil
}

// IONodeOf returns the I/O node serving thread t: compute nodes are
// assigned to I/O nodes in contiguous groups (the pset organization of
// §2), and threads to compute nodes by the configured mapping.
func (c Config) IONodeOf(t int) int {
	slot := t
	if c.Mapping != nil {
		slot = c.Mapping.Node(t) // mapping permutes threads across slots
	}
	node := slot / c.ThreadsPerCompute
	return node / (c.ComputeNodes / c.IONodes)
}

// LayoutHierarchy converts the platform's cache topology into the
// optimizer's hierarchy description. Only the I/O and storage layers carry
// caches (as in the paper's evaluation); pass targetIO/targetStorage to
// restrict the optimization to a single layer (Fig. 7(f)).
func (c Config) LayoutHierarchy(targetIO, targetStorage bool) (layout.Hierarchy, error) {
	if !targetIO && !targetStorage {
		return layout.Hierarchy{}, fmt.Errorf("sim: at least one layer must be targeted")
	}
	threadsPerIO := c.Threads() / c.IONodes
	// Files are striped round-robin across every storage node, so the
	// storage layer behaves as one aggregated cache shared by all I/O
	// nodes rather than a per-subtree parent (the tree of Fig. 6(c) is
	// the special case of one storage node).
	aggStorage := int64(c.StorageCacheBlocks) * c.BlockElems * int64(c.StorageNodes)
	ioCap := int64(c.IOCacheBlocks) * c.BlockElems
	var levels []layout.Level
	switch {
	case targetIO && targetStorage:
		levels = []layout.Level{
			{Name: "io", CapacityElems: ioCap, Fanout: threadsPerIO},
			{Name: "storage", CapacityElems: aggStorage, Fanout: c.IONodes},
		}
	case targetIO:
		// A structural top level with fanout covering the remaining
		// threads keeps the pattern aware of all threads while the chunk
		// sizing and interleaving target the I/O layer only.
		levels = []layout.Level{
			{Name: "io", CapacityElems: ioCap, Fanout: threadsPerIO},
			{Name: "rest", CapacityElems: ioCap * int64(c.IONodes), Fanout: c.IONodes},
		}
	default: // storage only
		levels = []layout.Level{
			{Name: "storage", CapacityElems: aggStorage, Fanout: c.Threads()},
		}
	}
	return layout.Hierarchy{Levels: levels}, nil
}
