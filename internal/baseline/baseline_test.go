package baseline

import (
	"context"
	"testing"

	"flopt/internal/lang"
	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/trace"
	"flopt/internal/workloads"
)

func testConfig() sim.Config {
	c := sim.DefaultConfig()
	c.ComputeNodes = 8
	c.IONodes = 4
	c.StorageNodes = 2
	c.BlockElems = 8
	c.IOCacheBlocks = 8
	c.StorageCacheBlocks = 16
	return c
}

func TestPermutations(t *testing.T) {
	ps := permutations(3)
	if len(ps) != 6 {
		t.Fatalf("got %d permutations, want 6", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		key := ""
		for _, v := range p {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
	if len(permutations(1)) != 1 {
		t.Error("permutations(1) wrong")
	}
}

func TestReindexFixesTransposedAccess(t *testing.T) {
	// A purely transposed access: reindexing should flip B to
	// column-major and beat row-major.
	src := `
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read B[j][i]; } }
`
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	best, err := Reindex(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best["B"].Name() == "row-major" {
		t.Errorf("reindexing kept row-major for a transposed access, layout = %s", best["B"].Name())
	}
}

func TestReindexKeepsGoodLayout(t *testing.T) {
	src := `
array A[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; } }
`
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Reindex(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if best["A"].Name() != "row-major" {
		t.Errorf("reindexing should keep row-major for row access, got %s", best["A"].Name())
	}
}

func TestReindexSkips1D(t *testing.T) {
	src := `
array V[512];
parallel(i) for i = 0 to 511 { read V[i]; }
`
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Reindex(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if best["V"].Name() != "row-major" {
		t.Error("1-D array should be untouched")
	}
}

// TestReindexNeverLosesToDefault: the descent starts from row-major and
// keeps a candidate only when its profile is faster, so timed the way
// the final run times it (sim.RunTraces: KARMA with its hints, readahead
// stopping at end of file) its choice is never slower than row-major.
// Profiling with hint-less KARMA broke this for s3asim, whose reindexed
// layout then ran 1.38× the row-major time in Fig. 7(g).
func TestReindexNeverLosesToDefault(t *testing.T) {
	wl, ok := workloads.ByName("s3asim")
	if !ok {
		t.Fatal("no s3asim workload")
	}
	p, err := lang.Parse(wl.Name, wl.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Policy, cfg.ReadaheadBlocks = "karma", 2
	best, err := Reindex(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reindexed, row := execTime(t, p, cfg, best), execTime(t, p, cfg, layout.DefaultLayouts(p))
	if reindexed > row {
		t.Errorf("reindexed layouts run %d µs, row-major %d µs", reindexed, row)
	}
}

// execTime simulates p under the given layouts the way exp.Runner does.
func execTime(t *testing.T, p *poly.Program, cfg sim.Config, ls map[string]layout.Layout) int64 {
	t.Helper()
	plans, err := parallel.DefaultPlans(p, cfg.Threads())
	if err != nil {
		t.Fatal(err)
	}
	ft, err := trace.NewFileTable(p, ls)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := trace.Generate(p, plans, ft, cfg.BlockElems, cfg.Threads())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.RunTraces(context.Background(), cfg, ft, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep.ExecTimeUS
}

// defaultTraces builds default-layout traces for a source program.
func defaultTraces(t *testing.T, src string, cfg sim.Config) []*trace.NestTrace {
	t.Helper()
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	plans := make(map[*poly.LoopNest]*parallel.Plan)
	for _, n := range p.Nests {
		plan, err := parallel.NewPlan(n, cfg.Threads(), 1)
		if err != nil {
			t.Fatal(err)
		}
		plans[n] = plan
	}
	ft, err := trace.NewFileTable(p, layout.DefaultLayouts(p))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := trace.Generate(p, plans, ft, cfg.BlockElems, cfg.Threads())
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestComputationMappingClustersSharers(t *testing.T) {
	// Halo pattern: thread t shares row boundaries with threads t±1.
	// The clustering should co-locate consecutive threads — which the
	// identity already does — so the mapping must be a valid permutation
	// that keeps sharing pairs together at least as well as random.
	src := `
array A[64][64];
parallel(i) for i = 0 to 62 { for j = 0 to 63 { read A[i][j]; read A[i+1][j]; } }
`
	cfg := testConfig()
	traces := defaultTraces(t, src, cfg)
	m, err := ComputationMapping(cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Measure co-location quality: count sharing pairs (t, t+1) placed in
	// the same I/O-node group.
	group := cfg.Threads() / cfg.IONodes
	together := 0
	for th := 0; th+1 < cfg.Threads(); th++ {
		if m.Node(th)/group == m.Node(th+1)/group {
			together++
		}
	}
	// 8 threads in 4 groups of 2: at most 4 adjacent pairs co-located;
	// the greedy must find at least 3.
	if together < 3 {
		t.Errorf("only %d sharing pairs co-located", together)
	}
}

func TestComputationMappingPermutation(t *testing.T) {
	src := `
array A[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; } }
`
	cfg := testConfig()
	m, err := ComputationMapping(cfg, defaultTraces(t, src, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != cfg.Threads() {
		t.Errorf("mapping covers %d threads", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestComputationMappingIndivisible(t *testing.T) {
	cfg := testConfig()
	cfg.ComputeNodes = 6
	cfg.IONodes = 4
	if _, err := ComputationMapping(cfg, nil); err == nil {
		t.Error("indivisible thread/io ratio accepted")
	}
}
