package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"flopt/internal/lang"
	"flopt/internal/layout"
	"flopt/internal/obs"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
)

// smallConfig is a 8-thread platform for fast tests.
func smallConfig() Config {
	c := DefaultConfig()
	c.ComputeNodes = 8
	c.IONodes = 4
	c.StorageNodes = 2
	c.BlockElems = 8
	c.IOCacheBlocks = 8
	c.StorageCacheBlocks = 16
	return c
}

func buildTraces(t *testing.T, src string, cfg Config, optimized bool) (*trace.FileTable, []*trace.NestTrace) {
	t.Helper()
	p, plans, layouts := buildProgram(t, src, cfg, optimized)
	ft, err := trace.NewFileTable(p, layouts)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := trace.Generate(p, plans, ft, cfg.BlockElems, cfg.Threads())
	if err != nil {
		t.Fatal(err)
	}
	return ft, traces
}

// buildProgram parses src and picks its plans and layouts: the default
// ones, or the optimizer's for cfg's hierarchy.
func buildProgram(t *testing.T, src string, cfg Config, optimized bool) (*poly.Program, map[*poly.LoopNest]*parallel.Plan, map[string]layout.Layout) {
	t.Helper()
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	plans := make(map[*poly.LoopNest]*parallel.Plan)
	var layouts map[string]layout.Layout
	if optimized {
		h, err := cfg.LayoutHierarchy(true, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := layout.Optimize(p, layout.Options{Hierarchy: h, BlockElems: cfg.BlockElems})
		if err != nil {
			t.Fatal(err)
		}
		layouts = res.Layouts
		plans = res.Plans
	} else {
		layouts = layout.DefaultLayouts(p)
		for _, n := range p.Nests {
			plan, err := parallel.NewPlan(n, cfg.Threads(), 1)
			if err != nil {
				t.Fatal(err)
			}
			plans[n] = plan
		}
	}
	return p, plans, layouts
}

const colScan = `
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read B[j][i]; } }
`

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.IONodes = 5 // 64 % 5 != 0
	if c.Validate() == nil {
		t.Error("non-divisible io nodes accepted")
	}
	c = DefaultConfig()
	c.ComputeNodes = 0
	if c.Validate() == nil {
		t.Error("zero compute nodes accepted")
	}
	c = DefaultConfig()
	m := parallel.IdentityMapping(8) // wrong size
	c.Mapping = &m
	if c.Validate() == nil {
		t.Error("mis-sized mapping accepted")
	}
	for _, pol := range []string{"", "lru", "demote", "karma"} {
		c = DefaultConfig()
		c.Policy = pol
		if err := c.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", pol, err)
		}
	}
	// Report names and "mq" are not selectable.
	for _, pol := range []string{"KARMA", "mq"} {
		c = DefaultConfig()
		c.Policy = pol
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("policy %q: err = %v, want ErrBadConfig", pol, err)
		}
	}
}

func TestIONodeRouting(t *testing.T) {
	c := smallConfig() // 8 threads, 4 io nodes → 2 threads per io node
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for th, w := range want {
		if got := c.IONodeOf(th); got != w {
			t.Errorf("IONodeOf(%d) = %d, want %d", th, got, w)
		}
	}
	m := parallel.PermutedMapping("II", 8, 42)
	c.Mapping = &m
	// Routing must follow the permutation.
	for th := 0; th < 8; th++ {
		if got, want := c.IONodeOf(th), m.Node(th)/2; got != want {
			t.Errorf("mapped IONodeOf(%d) = %d, want %d", th, got, want)
		}
	}
}

func TestLayoutHierarchy(t *testing.T) {
	c := smallConfig()
	h, err := c.LayoutHierarchy(true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 2 || h.Threads() != 8 {
		t.Fatalf("hierarchy = %+v", h)
	}
	if h.Levels[0].Fanout != 2 || h.Levels[1].Fanout != 4 {
		t.Errorf("fanouts = %d, %d", h.Levels[0].Fanout, h.Levels[1].Fanout)
	}
	if h.Levels[0].CapacityElems != int64(c.IOCacheBlocks)*c.BlockElems {
		t.Error("capacity conversion wrong")
	}
	for _, tc := range []struct{ io, st bool }{{true, false}, {false, true}} {
		h, err := c.LayoutHierarchy(tc.io, tc.st)
		if err != nil {
			t.Fatal(err)
		}
		if h.Threads() != 8 {
			t.Errorf("single-layer hierarchy covers %d threads", h.Threads())
		}
	}
	if _, err := c.LayoutHierarchy(false, false); err == nil {
		t.Error("no-layer hierarchy accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	r1, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTimeUS != r2.ExecTimeUS || r1.IO != r2.IO || r1.Storage != r2.Storage {
		t.Error("simulation is not deterministic")
	}
	if r1.ExecTimeUS <= 0 || r1.Accesses <= 0 {
		t.Errorf("degenerate report: %+v", r1)
	}
}

func TestOptimizedLayoutBeatsDefault(t *testing.T) {
	cfg := smallConfig()
	_, defTraces := buildTraces(t, colScan, cfg, false)
	_, optTraces := buildTraces(t, colScan, cfg, true)
	defRep, err := Simulate(cfg, defTraces, nil)
	if err != nil {
		t.Fatal(err)
	}
	optRep, err := Simulate(cfg, optTraces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if optRep.ExecTimeUS >= defRep.ExecTimeUS {
		t.Errorf("optimized (%d µs) should beat default (%d µs) on a column scan",
			optRep.ExecTimeUS, defRep.ExecTimeUS)
	}
	if optRep.Accesses >= defRep.Accesses {
		t.Errorf("optimized should coalesce more: %d vs %d accesses",
			optRep.Accesses, defRep.Accesses)
	}
}

func TestBarrierBetweenNests(t *testing.T) {
	src := `
array A[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; } }
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; } }
`
	cfg := smallConfig()
	// Size the caches so a thread's working set fits and the second nest
	// can reuse it.
	cfg.IOCacheBlocks = 256
	cfg.StorageCacheBlocks = 512
	_, traces := buildTraces(t, src, cfg, false)
	if len(traces) != 2 {
		t.Fatalf("nest traces = %d", len(traces))
	}
	rep, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The second pass should hit caches warmed by the first; total
	// execution must still exceed the single-nest time.
	single, err := Simulate(cfg, traces[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecTimeUS <= single.ExecTimeUS {
		t.Error("two nests cannot be faster than one")
	}
	if rep.IO.Hits <= single.IO.Hits {
		t.Error("second pass should add cache hits")
	}
}

func TestPolicies(t *testing.T) {
	cfg := smallConfig()
	ft, traces := buildTraces(t, colScan, cfg, false)
	for _, pol := range []string{"lru", "demote", "karma"} {
		c := cfg
		c.Policy = pol
		rep, err := Simulate(c, traces, GenerateHints(c, ft, traces))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if rep.ExecTimeUS <= 0 {
			t.Errorf("%s: no time elapsed", pol)
		}
		if rep.PolicyName == "" {
			t.Errorf("%s: no policy name", pol)
		}
	}
}

func TestMachineResetAndWarmth(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	r2, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	if r1.IO.Hits != r2.IO.Hits {
		t.Error("reset did not restore cold state")
	}
}

func TestReportMetrics(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	rep, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOMissRate() <= 0 || rep.IOMissRate() > 1 {
		t.Errorf("io miss rate = %f", rep.IOMissRate())
	}
	if rep.DiskReads != rep.Storage.Misses {
		t.Errorf("disk reads (%d) should equal storage misses (%d)", rep.DiskReads, rep.Storage.Misses)
	}
	if len(rep.ThreadTimeUS) != cfg.Threads() {
		t.Error("thread times missing")
	}
	max := int64(0)
	for _, v := range rep.ThreadTimeUS {
		if v > max {
			max = v
		}
	}
	if rep.ExecTimeUS != max {
		t.Error("exec time is not the max thread time")
	}
}

func TestStreamCountMismatch(t *testing.T) {
	cfg := smallConfig()
	nt := &trace.NestTrace{Streams: make([][]trace.Access, 3)}
	if _, err := Simulate(cfg, []*trace.NestTrace{nt}, nil); err == nil {
		t.Error("stream/thread mismatch accepted")
	}
}

func TestGenerateHints(t *testing.T) {
	cfg := smallConfig()
	cfg.HintRangesPerFile = 4
	ft, traces := buildTraces(t, colScan, cfg, false)
	hints := GenerateHints(cfg, ft, traces)
	if len(hints) == 0 {
		t.Fatal("no hints")
	}
	var total float64
	covered := int64(0)
	for _, h := range hints {
		if h.End <= h.Start {
			t.Errorf("empty range hint %+v", h)
		}
		covered += h.Blocks()
		total += h.TotalFreq()
	}
	if covered != ft.Blocks(0, cfg.BlockElems) {
		t.Errorf("hints cover %d blocks, file has %d", covered, ft.Blocks(0, cfg.BlockElems))
	}
	var accs int64
	for _, nt := range traces {
		accs += nt.TotalAccesses()
	}
	if int64(total) != accs {
		t.Errorf("hint frequency mass %f ≠ accesses %d", total, accs)
	}
}

func TestReadaheadArmsOnStreams(t *testing.T) {
	cfg := smallConfig()
	cfg.ReadaheadBlocks = 2
	// A single-thread sequential scan: blocks 0,1,2,… of one file. The
	// second consecutive miss arms readahead.
	nt := &trace.NestTrace{Streams: make([][]trace.Access, cfg.Threads())}
	for b := uint32(0); b < 32; b++ {
		nt.Streams[0] = append(nt.Streams[0], trace.Access{File: 0, Block: b, Elems: 1})
	}
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFileBlocks([]int64{32})
	rep, err := m.Run([]*trace.NestTrace{nt})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefetches == 0 {
		t.Error("sequential stream did not arm readahead")
	}
	// Prefetched blocks must convert later demand misses into storage
	// hits: with readahead the storage level sees hits it cannot get cold.
	if rep.Storage.Hits == 0 {
		t.Error("prefetched blocks never hit")
	}
	// Readahead never runs past end of file.
	if rep.Prefetches > 32 {
		t.Errorf("prefetches = %d beyond file size", rep.Prefetches)
	}
}

func TestReadaheadOffByDefault(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	rep, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefetches != 0 {
		t.Errorf("prefetches = %d with readahead disabled", rep.Prefetches)
	}
}

func TestReadaheadKarmaIgnores(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = "karma"
	cfg.ReadaheadBlocks = 4
	ft, traces := buildTraces(t, colScan, cfg, false)
	m, err := NewMachine(cfg, GenerateHints(cfg, ft, traces))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefetches != 0 {
		t.Errorf("KARMA accepted %d readahead fills", rep.Prefetches)
	}
}

// TestGenerateHintsDeterministic pins that KARMA hint generation is a
// pure function of the traces: two calls on the same input agree.
func TestGenerateHintsDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = "karma"
	ft, traces := buildTraces(t, replayWork, cfg, false)
	h1 := GenerateHints(cfg, ft, traces)
	h2 := GenerateHints(cfg, ft, traces)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("KARMA hint generation is nondeterministic")
	}
}

// replayWork is two nests over two arrays: a column scan (cache-hostile,
// heavy disk traffic) followed by a row scan (sequential runs, stream
// table and readahead traffic), so both cache levels, the disks and the
// stream detectors all see sustained load.
const replayWork = `
array A[64][64];
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[j][i]; read B[i][j]; } }
parallel(j) for j = 0 to 63 { for i = 0 to 63 { read A[j][i]; } }
`

// runCold simulates the traces on a fresh machine wired the way flopt.Run
// wires one (file blocks, file names, KARMA hints).
func runCold(t *testing.T, cfg Config, ft *trace.FileTable, traces []*trace.NestTrace) (*Machine, *Report) {
	t.Helper()
	var hints []cache.RangeHint
	if cfg.Policy == "karma" {
		hints = GenerateHints(cfg, ft, traces)
	}
	m, err := NewMachine(cfg, hints)
	if err != nil {
		t.Fatal(err)
	}
	fileBlocks := make([]int64, len(ft.Names))
	for f := range fileBlocks {
		fileBlocks[f] = ft.Blocks(int32(f), cfg.BlockElems)
	}
	m.SetFileBlocks(fileBlocks)
	m.SetFileNames(ft.Names)
	rep, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// TestRunReplayIdentical pins determinism for every policy, fault seed
// and readahead mode: two fresh machines produce equal reports, metric
// snapshots included, and a Reset machine replays the same report (its
// metrics collector keeps accumulating, so only the simulation fields
// are compared).
func TestRunReplayIdentical(t *testing.T) {
	variants := []struct {
		name      string
		faults    float64
		seed      int64
		readahead int
	}{
		{name: "healthy"},
		{name: "faults-seed42", faults: 0.6, seed: 42},
		{name: "faults-seed7", faults: 0.35, seed: 7},
		{name: "readahead", readahead: 2},
	}
	for _, policy := range cache.Names() {
		for _, v := range variants {
			t.Run(policy+"/"+v.name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.Policy = policy
				cfg.FaultIntensity, cfg.FaultSeed = v.faults, v.seed
				cfg.ReadaheadBlocks = v.readahead
				cfg.Metrics = true
				ft, traces := buildTraces(t, replayWork, cfg, false)

				m, first := runCold(t, cfg, ft, traces)
				if first.DiskReads == 0 {
					t.Fatal("workload produced no disk traffic; test is vacuous")
				}
				// DeepEqual follows Report.Metrics, so this covers the
				// whole metric snapshot too.
				_, second := runCold(t, cfg, ft, traces)
				if !reflect.DeepEqual(first, second) {
					t.Errorf("fresh replay differs\nfirst:  %+v\nsecond: %+v", first, second)
				}

				m.Reset()
				third, err := m.Run(traces)
				if err != nil {
					t.Fatal(err)
				}
				want := *first
				want.Metrics, third.Metrics = nil, nil
				if !reflect.DeepEqual(&want, third) {
					t.Errorf("Reset replay differs\nfirst: %+v\nreset: %+v", &want, third)
				}
			})
		}
	}
}

// countdownCtx reports itself canceled from its (after+1)-th Err poll on,
// counting the polls.
type countdownCtx struct {
	context.Context
	polls, after int64
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// accessCounter counts BlockAccess deliveries, one per served access.
type accessCounter struct{ n int64 }

func (c *accessCounter) BlockAccess(int, int32, obs.Level, int64) { c.n++ }
func (c *accessCounter) DiskService(int, int64, bool)             {}
func (c *accessCounter) RetryWait(int, int64)                     {}
func (c *accessCounter) Event(obs.Event)                          {}

// TestRunContextAbortBound pins the scheduler's abort latency: ctx is
// polled once every ctxCheckEvery accesses, so a cancellation first seen
// on poll N+1 stops the run after at most (N+1)·ctxCheckEvery served
// accesses, however long the trace. Simulate job timeouts and the
// daemon's drain aborts rest on this bound.
func TestRunContextAbortBound(t *testing.T) {
	cfg := smallConfig()
	// A sequential scan of 4·ctxCheckEvery blocks per thread, each thread
	// on its own block range.
	const perThread = 4 * ctxCheckEvery
	nt := &trace.NestTrace{Streams: make([][]trace.Access, cfg.Threads())}
	for th := range nt.Streams {
		s := make([]trace.Access, perThread)
		for i := range s {
			s[i] = trace.Access{Block: uint32(th*perThread + i), Elems: 1}
		}
		nt.Streams[th] = s
	}
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var served accessCounter
	m.SetObserver(&served)

	const allowedPolls = 2
	bound := int64(allowedPolls+1) * ctxCheckEvery
	if total := nt.TotalAccesses(); total <= 2*bound {
		t.Fatalf("trace too short (%d accesses) to distinguish a bounded abort", total)
	}
	ctx := &countdownCtx{Context: context.Background(), after: allowedPolls}
	if _, err := m.RunContext(ctx, []*trace.NestTrace{nt}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ctx.polls != allowedPolls+1 {
		t.Errorf("run polled ctx %d times, want %d", ctx.polls, allowedPolls+1)
	}
	if served.n > bound {
		t.Errorf("run served %d accesses; a cancel on poll %d allows ≤ %d", served.n, allowedPolls+1, bound)
	}
	if served.n <= allowedPolls*ctxCheckEvery {
		t.Errorf("run served only %d accesses; polls are paced faster than every %d", served.n, ctxCheckEvery)
	}
}
