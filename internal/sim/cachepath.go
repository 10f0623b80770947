package sim

import (
	"flopt/internal/obs"
	"flopt/internal/storage/cache"
)

// serve routes one block request issued by thread t at the given virtual
// time (ns) and returns its latency in nanoseconds. Striping sends
// consecutive blocks to different storage nodes, so there is no
// cross-block cache transaction to batch below this level.
func (m *Machine) serve(now int64, t int, file int32, block int64, elems int32) int64 {
	if m.faults != nil {
		return m.serveFaulty(now, t, file, block, elems)
	}
	io := m.ioOf[t]
	st := m.striper.NodeOf(block)
	out := m.mgr.Read(io, st, cache.BlockID{File: file, Block: block})

	lat := m.cfg.CPUPerElemNS*int64(elems) + 1000*(m.cfg.NetCIUS+m.cfg.CacheSvcUS)
	switch out.Level {
	case cache.HitIO:
		// done
	case cache.HitStorage:
		lat += 1000 * (m.cfg.NetISUS + m.cfg.CacheSvcUS)
	case cache.HitDisk:
		lat += 1000 * (m.cfg.NetISUS + m.cfg.CacheSvcUS)
		arrive := now + lat
		local := m.striper.LocalIndex(block)
		done := m.disks[st].Read(arrive, file, local)
		lat += done - arrive
		// Server-side multi-stream detection: a demand read continuing
		// any in-flight sequential stream of this file on this node arms
		// readahead, as real per-flow readahead does.
		tab := &m.streams[st]
		if tab.take(packStreamKey(file, local)) {
			m.readahead(now, file, block)
		}
		tab.insert(packStreamKey(file, local+1))
	}
	if out.Demoted {
		lat += 1000 * m.cfg.NetISUS
	}
	if m.obsOn {
		m.obs.BlockAccess(t, file, obs.Level(out.Level), lat)
	}
	return lat
}

// packStreamKey packs one expected stream continuation (file, next local
// block index) into a single map key. The cache layer's packBlockID guard
// has already bounds-checked file and the global block index on this
// request, and the local index never exceeds the global one.
func packStreamKey(file int32, next int64) uint64 {
	return uint64(uint32(file))<<streamKeyFileShift | uint64(next)
}

const streamKeyFileShift = 40

// maxStreams bounds the per-node stream table (ample for one stream per
// thread per file).
const maxStreams = 4096

// streamTable is the per-storage-node stream detector: a set of expected
// continuations plus a FIFO insertion ring for bounded expiry. When the
// table is full the oldest live stream is dropped — replacing the old
// clear-the-whole-map expiry, which reallocated the map and forgot every
// in-flight stream at once. Matched (taken) streams leave tombstones in
// the ring that are skipped lazily and dropped on compaction.
type streamTable struct {
	set  map[uint64]struct{}
	fifo []uint64
	head int
}

// take removes key from the table, reporting whether it was present.
func (s *streamTable) take(key uint64) bool {
	if _, ok := s.set[key]; ok {
		delete(s.set, key)
		return true
	}
	return false
}

// insert adds key unless already tracked, expiring the oldest live stream
// once the table is at capacity.
func (s *streamTable) insert(key uint64) {
	if _, ok := s.set[key]; ok {
		return
	}
	if len(s.set) >= maxStreams {
		for {
			old := s.fifo[s.head]
			s.head++
			if _, live := s.set[old]; live {
				delete(s.set, old)
				break
			}
		}
	}
	if len(s.fifo)-s.head >= 2*maxStreams || (s.head > 0 && s.head >= len(s.fifo)/2) {
		s.compact()
	}
	s.set[key] = struct{}{}
	s.fifo = append(s.fifo, key)
}

// compact drops tombstones and the consumed ring prefix in place.
func (s *streamTable) compact() {
	live := s.fifo[:0]
	for _, k := range s.fifo[s.head:] {
		if _, ok := s.set[k]; ok {
			live = append(live, k)
		}
	}
	s.fifo = live
	s.head = 0
}

// reset empties the table, keeping the map and ring storage.
func (s *streamTable) reset() {
	clear(s.set)
	s.fifo = s.fifo[:0]
	s.head = 0
}

// readahead pulls the next sequential blocks of the file into the storage
// caches after a demand disk read (when enabled). Each prefetched block
// pays its transfer time on the disk that owns its stripe — delaying
// queued demand reads, which is the realistic cost of speculation — but
// adds nothing to the requester's latency. Under fault injection,
// unreachable nodes are skipped (nobody speculates into a dead node) and
// fail-slow scaling applies.
func (m *Machine) readahead(now int64, file int32, block int64) {
	if m.cfg.ReadaheadBlocks <= 0 {
		return
	}
	pf, ok := m.mgr.(cache.Prefetcher)
	if !ok {
		return // policy does not accept readahead fills (e.g. KARMA)
	}
	for r := 1; r <= m.cfg.ReadaheadBlocks; r++ {
		next := block + int64(r)
		if int(file) < len(m.fileBlocks) && next >= m.fileBlocks[file] {
			break // end of file
		}
		st := m.striper.NodeOf(next)
		if m.faults != nil && m.faults.NodeDownAt(st, now) {
			continue
		}
		blk := cache.BlockID{File: file, Block: next}
		if pf.PrefetchStorage(st, blk) {
			scale := 1.0
			if m.faults != nil {
				scale = m.faults.SlowFactorAt(st, now)
			}
			m.disks[st].ReadScaled(0, file, m.striper.LocalIndex(next), scale)
			m.prefetches++
		}
	}
}
