package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"flopt/internal/layout"
	"flopt/internal/memo"
	"flopt/internal/poly"
	"flopt/internal/sim"
)

// layoutID derives the stable public identifier of a compiled layout set:
// a content hash over the program source and every configuration field
// the optimizer consults (the same fields exp.Runner keys its prep cache
// on). Identical submissions — byte-identical source under an equivalent
// platform — always map to the same ID, across restarts and replicas.
func layoutID(source string, cfg sim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d",
		source, cfg.BlockElems, cfg.ComputeNodes, cfg.ThreadsPerCompute,
		cfg.IONodes, cfg.StorageNodes, cfg.IOCacheBlocks, cfg.StorageCacheBlocks)
	return "ly" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compiled is one immutable cache entry: the parsed program, the
// optimizer's result, and the platform it was compiled for. Entries are
// never mutated after construction, so readers share them without locks;
// eviction only drops the cache's reference (in-flight queries and jobs
// keep theirs).
type compiled struct {
	ID      string
	Source  string
	Program *poly.Program
	Result  *layout.Result
	Cfg     sim.Config

	arrays map[string]*poly.Array // name → array, for offset-query lookups
}

// layoutFor returns the layout and geometry of one array.
func (c *compiled) layoutFor(name string) (layout.Layout, *poly.Array, bool) {
	a, ok := c.arrays[name]
	if !ok {
		return nil, nil, false
	}
	return c.Result.Layouts[name], a, true
}

// compileCached returns the entry for (source, cfg) from the layout
// cache, building it at most once per ID however many requests race
// (see memo.Cache: a ctx that ends cuts only this caller's wait short).
// The bool reports whether the entry was joined or already resident.
// The build is charged to buildCounter: client compiles count in
// compile_builds_total, cluster peer fills in cluster_fill_builds_total,
// which keeps compile_builds_total the exact count of authoritative
// builds that the distributed-singleflight property is observed by.
func (s *Server) compileCached(ctx context.Context, source string, cfg sim.Config, buildCounter string) (*compiled, bool, error) {
	id := layoutID(source, cfg)
	ent, res, err := s.cache.Get(ctx, id, func() (*compiled, error) {
		s.met.inc(buildCounter)
		ent, err := s.build(source, cfg)
		if ent != nil {
			ent.ID = id
		}
		return ent, err
	})
	switch res {
	case memo.Hit:
		s.met.inc(mCompileCacheHits)
	case memo.Joined:
		s.met.inc(mCompileJoined)
	default:
		s.met.gauge(mLayoutsResident, float64(s.cache.Len()))
	}
	return ent, res != memo.Built, err
}
