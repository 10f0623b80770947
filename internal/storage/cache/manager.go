package cache

import "fmt"

// HitLevel tells the simulator where a read was satisfied.
type HitLevel int

const (
	// HitIO: satisfied by the I/O node cache.
	HitIO HitLevel = iota
	// HitStorage: satisfied by the storage node cache.
	HitStorage
	// HitDisk: both levels missed; the block came from disk.
	HitDisk
)

func (h HitLevel) String() string {
	switch h {
	case HitIO:
		return "io"
	case HitStorage:
		return "storage"
	default:
		return "disk"
	}
}

// Outcome describes one block read through the cache hierarchy.
type Outcome struct {
	Level HitLevel
	// Demoted reports that the read triggered a demotion transfer from
	// the I/O level to the storage level (DEMOTE-LRU), which the
	// simulator charges network time for.
	Demoted bool
}

// Manager is a multi-level cache management policy covering all I/O node
// caches and all storage node caches of the platform. Read simulates a
// block read arriving at I/O cache io whose miss path leads to storage
// cache st.
type Manager interface {
	Read(io, st int, b BlockID) Outcome
	Name() string
	// IOStats and StorageStats aggregate counters across the caches of
	// each level.
	IOStats() Stats
	StorageStats() Stats
	// Reset clears all cache contents and counters.
	Reset()
}

// NodeStatsReporter is implemented by policies that can break their
// aggregate counters down per cache instance — the observability layer
// uses it for per-node hit/miss/eviction breakdowns. Every built-in
// policy implements it.
type NodeStatsReporter interface {
	// IONodeStats returns one Stats per I/O-node cache, in node order.
	IONodeStats() []Stats
	// StorageNodeStats returns one Stats per storage-node cache.
	StorageNodeStats() []Stats
}

// Prefetcher is implemented by policies that accept readahead insertions
// at the storage level.
type Prefetcher interface {
	// PrefetchStorage inserts b into storage cache st without counting an
	// access (the block arrived by readahead, not by demand). It reports
	// whether the block was newly inserted (false: it was already cached,
	// so no device read is needed).
	PrefetchStorage(st int, b BlockID) bool
}

// aggregate sums stats over a set of LRU caches.
func aggregate(cs []*LRU) Stats {
	var s Stats
	for _, c := range cs {
		s.Add(c.Stats())
	}
	return s
}

// perNode snapshots each LRU cache's stats in node order.
func perNode(cs []*LRU) []Stats {
	out := make([]Stats, len(cs))
	for i, c := range cs {
		out[i] = c.Stats()
	}
	return out
}

// InclusiveLRU is the paper's default policy: independent LRU caches at
// both levels; a block read from disk is inserted at both levels
// (inclusive).
type InclusiveLRU struct {
	io, st []*LRU
}

// NewInclusiveLRU builds the default policy with nIO I/O caches of capIO
// blocks and nStorage storage caches of capStorage blocks.
func NewInclusiveLRU(nIO, nStorage, capIO, capStorage int) *InclusiveLRU {
	m := &InclusiveLRU{}
	for i := 0; i < nIO; i++ {
		m.io = append(m.io, NewLRU(capIO))
	}
	for i := 0; i < nStorage; i++ {
		m.st = append(m.st, NewLRU(capStorage))
	}
	return m
}

// Read implements Manager.
func (m *InclusiveLRU) Read(io, st int, b BlockID) Outcome {
	if m.io[io].Access(b) {
		return Outcome{Level: HitIO}
	}
	if m.st[st].Access(b) {
		return Outcome{Level: HitStorage}
	}
	return Outcome{Level: HitDisk}
}

// PrefetchStorage implements Prefetcher.
func (m *InclusiveLRU) PrefetchStorage(st int, b BlockID) bool {
	if m.st[st].Contains(b) {
		return false
	}
	m.st[st].Insert(b)
	return true
}

// Name implements Manager.
func (m *InclusiveLRU) Name() string { return "LRU-inclusive" }

// IOStats implements Manager.
func (m *InclusiveLRU) IOStats() Stats { return aggregate(m.io) }

// StorageStats implements Manager.
func (m *InclusiveLRU) StorageStats() Stats { return aggregate(m.st) }

// IONodeStats implements NodeStatsReporter.
func (m *InclusiveLRU) IONodeStats() []Stats { return perNode(m.io) }

// StorageNodeStats implements NodeStatsReporter.
func (m *InclusiveLRU) StorageNodeStats() []Stats { return perNode(m.st) }

// Reset implements Manager.
func (m *InclusiveLRU) Reset() {
	for _, c := range m.io {
		c.Reset()
	}
	for _, c := range m.st {
		c.Reset()
	}
}

// DemoteLRU implements the exclusive policy of Wong & Wilkes: on an I/O
// cache eviction the victim is demoted into the storage cache below; on a
// storage cache hit the block moves up (it is removed from the storage
// level and inserted at the I/O level); disk fills go only to the I/O
// level. The storage caches run plain LRU over demoted and read blocks.
type DemoteLRU struct {
	io, st []*LRU
	// demoteTo routes an eviction from an I/O cache to the storage cache
	// of the current request path.
	pendingStorage int
	lastDemoted    bool
}

// NewDemoteLRU builds the DEMOTE policy with the given cache counts and
// capacities.
func NewDemoteLRU(nIO, nStorage, capIO, capStorage int) *DemoteLRU {
	m := &DemoteLRU{}
	for i := 0; i < nIO; i++ {
		c := NewLRU(capIO)
		m.io = append(m.io, c)
	}
	for i := 0; i < nStorage; i++ {
		m.st = append(m.st, NewLRU(capStorage))
	}
	for _, c := range m.io {
		c.SetEvictCallback(func(b BlockID) {
			// The victim travels down to the storage cache handling the
			// current request path (an approximation of the original
			// client→array demotion: victims follow the open channel).
			m.st[m.pendingStorage].Insert(b)
			m.st[m.pendingStorage].stats.Demotions++
			m.lastDemoted = true
		})
	}
	return m
}

// Read implements Manager.
func (m *DemoteLRU) Read(io, st int, b BlockID) Outcome {
	m.pendingStorage = st
	m.lastDemoted = false
	if m.io[io].Access(b) { // hit: no insert happened, no demotion
		return Outcome{Level: HitIO}
	}
	// Access() inserted b into the I/O cache and may have demoted a
	// victim. Now resolve where the data actually came from.
	if m.st[st].Probe(b) {
		m.st[st].Remove(b) // exclusive: reading up removes the lower copy
		return Outcome{Level: HitStorage, Demoted: m.lastDemoted}
	}
	return Outcome{Level: HitDisk, Demoted: m.lastDemoted}
}

// PrefetchStorage implements Prefetcher: readahead fills go to the
// storage level (they were not demand-promoted to a client).
func (m *DemoteLRU) PrefetchStorage(st int, b BlockID) bool {
	if m.st[st].Contains(b) {
		return false
	}
	m.st[st].Insert(b)
	return true
}

// Name implements Manager.
func (m *DemoteLRU) Name() string { return "DEMOTE-LRU" }

// IOStats implements Manager.
func (m *DemoteLRU) IOStats() Stats { return aggregate(m.io) }

// StorageStats implements Manager.
func (m *DemoteLRU) StorageStats() Stats { return aggregate(m.st) }

// IONodeStats implements NodeStatsReporter.
func (m *DemoteLRU) IONodeStats() []Stats { return perNode(m.io) }

// StorageNodeStats implements NodeStatsReporter.
func (m *DemoteLRU) StorageNodeStats() []Stats { return perNode(m.st) }

// Demotions returns the total number of demotion transfers, summed from
// the per-storage-cache counters (every demotion lands in exactly one
// storage cache).
func (m *DemoteLRU) Demotions() int64 {
	var n int64
	for _, c := range m.st {
		n += c.stats.Demotions
	}
	return n
}

// Reset implements Manager.
func (m *DemoteLRU) Reset() {
	for _, c := range m.io {
		c.Reset()
	}
	for _, c := range m.st {
		c.Reset()
	}
}

var (
	_ Manager           = (*InclusiveLRU)(nil)
	_ Manager           = (*DemoteLRU)(nil)
	_ NodeStatsReporter = (*InclusiveLRU)(nil)
	_ NodeStatsReporter = (*DemoteLRU)(nil)
	_ NodeStatsReporter = (*KARMA)(nil)
)

// NewByName constructs a policy by its selectable name, exactly one of
// Names (the report names such as "KARMA" are not accepted).
func NewByName(name string, nIO, nStorage, capIO, capStorage int, hints []RangeHint) (Manager, error) {
	switch name {
	case "lru":
		return NewInclusiveLRU(nIO, nStorage, capIO, capStorage), nil
	case "demote":
		return NewDemoteLRU(nIO, nStorage, capIO, capStorage), nil
	case "karma":
		return NewKARMA(nIO, nStorage, capIO, capStorage, hints), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", name)
	}
}

// Names lists the selectable policy names.
func Names() []string { return []string{"lru", "demote", "karma"} }
