package exp

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"flopt/internal/sim"
	"flopt/internal/trace"
)

// assertTablesIdentical compares two tables cell-for-cell with exact
// float equality — the parallel harness must be bit-identical to serial.
func assertTablesIdentical(t *testing.T, serial, par *Table) {
	t.Helper()
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row count: serial %d, parallel %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i].App != par.Rows[i].App {
			t.Fatalf("row %d app: serial %q, parallel %q", i, serial.Rows[i].App, par.Rows[i].App)
		}
		for c := range serial.Rows[i].Values {
			sv, pv := serial.Rows[i].Values[c], par.Rows[i].Values[c]
			if sv != pv {
				t.Errorf("cell (%s, col %d): serial %v, parallel %v", serial.Rows[i].App, c, sv, pv)
			}
		}
	}
	for c := range serial.Average {
		if serial.Average[c] != par.Average[c] {
			t.Errorf("average col %d: serial %v, parallel %v", c, serial.Average[c], par.Average[c])
		}
	}
}

// TestParallelSerialIdenticalTables proves the determinism guarantee: a
// table generated with Parallel=1 and Parallel=8 is cell-for-cell
// identical. Short mode restricts the grid to four applications; the full
// run regenerates Table 2 both ways.
func TestParallelSerialIdenticalTables(t *testing.T) {
	apps := Apps()
	if testing.Short() {
		apps = apps[:4]
	}
	cfg := sim.DefaultConfig()
	build := func(par int) *Table {
		r := NewRunner()
		r.Parallel = par
		tab := &Table{Columns: []string{"io-miss%", "st-miss%", "exec(s)"}}
		err := buildRows(context.Background(), r, tab, apps, func(app string) ([]float64, error) {
			rep, err := r.Run(app, cfg, SchemeDefault)
			if err != nil {
				return nil, err
			}
			return []float64{
				100 * rep.IOMissRate(), 100 * rep.StorageMissRate(), float64(rep.ExecTimeUS) / 1e6,
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tab.FillAverages()
		return tab
	}
	assertTablesIdentical(t, build(1), build(8))
}

// TestFaultReplayAcrossWorkerCounts extends the determinism guarantee to
// fault injection (ISSUE 2 satellite): with a fixed fault seed, the table
// of execution times and degraded-mode counters is cell-for-cell identical
// whether built serially or with 8 workers, and rebuilding with the same
// runner replays the same values. The fault rng lives in the per-run
// Machine, so worker scheduling can never perturb it.
func TestFaultReplayAcrossWorkerCounts(t *testing.T) {
	apps := Apps()[:3]
	cfg := sim.DefaultConfig()
	cfg.FaultIntensity = 0.8
	cfg.FaultSeed = 42
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	build := func(r *Runner) *Table {
		tab := &Table{Columns: []string{"exec(s)", "exec-inter(s)", "retries", "timeouts", "degraded", "failover"}}
		err := buildRows(context.Background(), r, tab, apps, func(app string) ([]float64, error) {
			rep, err := r.Run(app, cfg, SchemeDefault)
			if err != nil {
				return nil, err
			}
			// The optimized layout takes the span emitter's longest
			// contiguous sweeps, so it also pins their fault replay across
			// worker counts.
			repI, err := r.Run(app, cfg, SchemeInter)
			if err != nil {
				return nil, err
			}
			return []float64{
				float64(rep.ExecTimeUS) / 1e6,
				float64(repI.ExecTimeUS) / 1e6,
				float64(rep.Retries), float64(rep.Timeouts),
				float64(rep.DegradedReads), float64(rep.FailedOverBlocks),
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tab.FillAverages()
		return tab
	}
	serial := NewRunner()
	serial.Parallel = 1
	par := NewRunner()
	par.Parallel = 8
	ref := build(serial)
	assertTablesIdentical(t, ref, build(par))
	// Same runner, second build: the prep cache is warm now, yet the
	// fault replay must still be bit-identical.
	assertTablesIdentical(t, ref, build(par))
}

// TestFaultSweepShape smoke-tests the fault-sweep experiment on a reduced
// app set via the row builder: each intensity column is filled and the
// degraded-mode counters at full intensity are non-zero for at least one
// app (the sweep would be vacuous on an always-healthy platform).
func TestFaultSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep runs each app at four intensities")
	}
	r := NewRunner()
	cfg := sim.DefaultConfig()
	cfg.FaultSeed = 7
	tab, err := FaultSweep(context.Background(), r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Apps()) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(Apps()))
	}
	var anyDegraded bool
	for _, row := range tab.Rows {
		if len(row.Values) != len(tab.Columns) {
			t.Fatalf("%s: %d values for %d columns", row.App, len(row.Values), len(tab.Columns))
		}
		// Columns beyond the four improvement figures are the
		// degraded-mode rates at intensity 1.
		for _, v := range row.Values[4:] {
			if v > 0 {
				anyDegraded = true
			}
		}
	}
	if !anyDegraded {
		t.Error("no app recorded any degraded-mode activity at intensity 1")
	}
}

// TestRunnerConcurrentRuns exercises Runner.Run from many goroutines at
// once (the -race companion of the worker pool): every concurrent repeat
// of the same (app, scheme) cell must report the same execution time, and
// the singleflight cache must hold one preparation per key.
func TestRunnerConcurrentRuns(t *testing.T) {
	r := NewRunner()
	cfg := sim.DefaultConfig()
	apps := []string{"swim", "qio"}
	schemes := []Scheme{SchemeDefault, SchemeInter}

	var mu sync.Mutex
	got := map[string][]int64{}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, app := range apps {
			for _, s := range schemes {
				wg.Add(1)
				go func(app string, s Scheme) {
					defer wg.Done()
					rep, err := r.Run(app, cfg, s)
					if err != nil {
						t.Errorf("%s/%s: %v", app, s, err)
						return
					}
					key := app + "/" + string(s)
					mu.Lock()
					got[key] = append(got[key], rep.ExecTimeUS)
					mu.Unlock()
				}(app, s)
			}
		}
	}
	wg.Wait()
	for key, times := range got {
		for _, exec := range times {
			if exec != times[0] {
				t.Errorf("%s: divergent concurrent results %v", key, times)
			}
		}
	}
	if n := r.preps.Len(); n != len(apps)*len(schemes) {
		t.Errorf("cached preps = %d, want %d (one per key, shared by singleflight)", n, len(apps)*len(schemes))
	}
}

// entrySize is the bytes one trace entry weighs in the prep cache.
const entrySize = int(unsafe.Sizeof(trace.Access{}))

// getPrep builds (or hits) under key a prep holding n trace entries.
func getPrep(t *testing.T, r *Runner, key prepKey, n int) {
	t.Helper()
	_, _, err := r.preps.Get(context.Background(), key, func() (*prep, error) {
		nt := &trace.NestTrace{Streams: [][]trace.Access{make([]trace.Access, n)}}
		return &prep{traces: []*trace.NestTrace{nt}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrepLRUEviction checks the prep cache is bounded by the bytes of
// its trace streams: a finished preparation evicts the least recently
// used completed entries until the total fits — not a recently touched
// one, and never an in-flight one.
func TestPrepLRUEviction(t *testing.T) {
	key := func(i int) prepKey { return prepKey{app: fmt.Sprintf("a%d", i)} }
	r := newRunner(10 * entrySize)
	for i := 0; i < 5; i++ {
		getPrep(t, r, key(i), 2)
	}
	if n := r.preps.Len(); n != 5 {
		t.Fatalf("preps = %d with the budget exactly full, want 5", n)
	}
	// Touch the oldest entry so a1 becomes the LRU victim, then add one.
	getPrep(t, r, key(0), 2)
	getPrep(t, r, key(5), 2)
	if n := r.preps.Len(); n != 5 {
		t.Fatalf("preps = %d after eviction, want 5", n)
	}
	if r.preps.Has(key(1)) {
		t.Error("least recently used entry a1 survived eviction")
	}
	if !r.preps.Has(key(0)) {
		t.Error("recently touched entry a0 was evicted")
	}
	// A heavy preparation evicts as many light ones as its bytes need:
	// a2, a3 and a4, the three least recently used.
	getPrep(t, r, key(6), 6)
	for i, want := range []bool{true, false, false, false, false, true, true} {
		if r.preps.Has(key(i)) != want {
			t.Errorf("a%d resident = %v, want %v", i, !want, want)
		}
	}

	// In-flight preparations are never evicted: a heavy build that
	// finishes while two others still run evicts only the finished entry.
	r = newRunner(2 * entrySize)
	getPrep(t, r, key(9), 1)
	gate := make(chan struct{})
	var started, done sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			r.preps.Get(context.Background(), key(i), func() (*prep, error) {
				started.Done()
				<-gate
				return &prep{}, nil
			})
		}(i)
	}
	started.Wait()
	getPrep(t, r, key(2), 2)
	if r.preps.Has(key(9)) || !r.preps.Has(key(0)) || !r.preps.Has(key(1)) {
		t.Errorf("a9 %v a0 %v a1 %v resident; want only the in-flight a0 and a1 kept",
			r.preps.Has(key(9)), r.preps.Has(key(0)), r.preps.Has(key(1)))
	}
	close(gate)
	done.Wait()
}

// TestWorkersResolution pins the Parallel-field semantics the flags rely
// on: 0 = GOMAXPROCS default, explicit values pass through.
func TestWorkersResolution(t *testing.T) {
	r := NewRunner()
	if r.workers() < 1 {
		t.Errorf("default workers = %d, want ≥ 1", r.workers())
	}
	r.Parallel = 1
	if r.workers() != 1 {
		t.Errorf("workers = %d with Parallel=1", r.workers())
	}
	r.Parallel = 7
	if r.workers() != 7 {
		t.Errorf("workers = %d with Parallel=7", r.workers())
	}
}

// TestForEachIndexError checks the pool reports the lowest failing index's
// error regardless of worker count.
func TestForEachIndexError(t *testing.T) {
	for _, par := range []int{1, 4} {
		err := forEachIndex(context.Background(), par, 8, func(i int) error {
			if i >= 3 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Errorf("par=%d: err = %v, want fail-3", par, err)
		}
	}
	if err := forEachIndex(context.Background(), 4, 0, func(int) error { return nil }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}
