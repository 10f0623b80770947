package sim

import (
	"fmt"

	"flopt/internal/obs"
	"flopt/internal/storage/cache"
)

// serveFaulty is serve's degraded-mode twin: outage-aware failover
// routing to the replica stripe, transient-error retries with capped
// exponential backoff, and replica reconstruction once the request
// deadline expires. Every injected delay lands on the calling thread's
// virtual clock, so fault runs replay bit-identically from the same seed.
func (m *Machine) serveFaulty(now int64, t int, file int32, block int64, elems int32) int64 {
	io := m.ioOf[t]
	st := m.striper.NodeOf(block)
	// Failover routing: requests owned by an unreachable storage node go
	// to the node holding the replica stripe (chained declustering). On a
	// single-node platform there is nowhere to fail over to.
	down := m.cfg.StorageNodes > 1 && m.faults.NodeDownAt(st, now)
	if down {
		st = m.striper.ReplicaOf(block, 1)
	}
	out := m.mgr.Read(io, st, cache.BlockID{File: file, Block: block})

	lat := m.cfg.CPUPerElemNS*int64(elems) + 1000*(m.cfg.NetCIUS+m.cfg.CacheSvcUS)
	if down && out.Level != cache.HitIO {
		// The redirect only costs (and counts) when the request actually
		// leaves the I/O node.
		m.failedOver++
		lat += 1000 * m.cfg.NetISUS
		if m.obsOn {
			m.obs.Event(obs.Event{TimeUS: now / 1000, Kind: obs.EvFailover,
				Node: st, Thread: t, File: file})
		}
	}
	switch out.Level {
	case cache.HitIO:
		// done
	case cache.HitStorage:
		lat += 1000 * (m.cfg.NetISUS + m.cfg.CacheSvcUS)
	case cache.HitDisk:
		lat += 1000 * (m.cfg.NetISUS + m.cfg.CacheSvcUS)
		arrive := now + lat
		lat += m.diskReadFaulty(arrive, st, file, block)
		local := m.striper.LocalIndex(block)
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

// diskReadFaulty performs the device read of a demand miss on storage
// node st under fault injection — fail-slow scaling plus transient read
// errors — and returns the latency beyond arrive. A failed attempt pays
// its full (possibly degraded) service time, then backs off; when the
// retry budget or the request deadline runs out, the read is served by
// replica reconstruction instead.
func (m *Machine) diskReadFaulty(arrive int64, st int, file int32, block int64) int64 {
	local := m.striper.LocalIndex(block)
	rate := m.faults.TransientErrorRate
	const backoffNS = 1000 * DefaultRetryBackoffUS
	deadline := arrive + 1000*DefaultRequestTimeoutUS
	at := arrive
	backoff := backoffNS
	for attempt := 0; ; attempt++ {
		done, _ := m.disks[st].ReadScaled(at, file, local, m.faults.SlowFactorAt(st, at))
		if rate <= 0 || m.rng.Float64() >= rate {
			return done - arrive
		}
		if attempt >= DefaultMaxRetries || done+backoff > deadline {
			m.timeouts++
			if m.obsOn {
				m.obs.Event(obs.Event{TimeUS: done / 1000, Kind: obs.EvTimeout,
					Node: st, Thread: -1, File: file,
					Detail: fmt.Sprintf("attempts=%d", attempt+1)})
			}
			return m.reconstruct(done, st, file, local, block) - arrive
		}
		m.retries++
		if m.obsOn {
			m.obs.RetryWait(st, backoff)
		}
		at = done + backoff
		if backoff < 8*backoffNS {
			backoff *= 2
		}
	}
}

// reconstruct serves a read whose primary attempts exhausted their retry
// budget from the block's other stripe copy — a degraded read. When the
// platform has no second copy (single storage node, or the request
// already failed over to the replica and back), the cost of one more
// positioned read on the surviving copy models parity reconstruction.
// Reconstruction always succeeds: it is the path of last resort, which is
// what guarantees the simulator terminates under any schedule.
func (m *Machine) reconstruct(at int64, st int, file int32, local, block int64) (doneNS int64) {
	m.degradedReads++
	rep := m.striper.ReplicaOf(block, 1)
	if rep == st {
		rep = m.striper.NodeOf(block)
	}
	if m.obsOn {
		m.obs.Event(obs.Event{TimeUS: at / 1000, Kind: obs.EvReconstruct,
			Node: rep, Thread: -1, File: file})
	}
	done, _ := m.disks[rep].ReadScaled(at, file, local, m.faults.SlowFactorAt(rep, at))
	return done
}
