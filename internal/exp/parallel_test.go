package exp

import (
	"context"
	"fmt"
	"sync"
	"testing"

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
			// The optimized layout emits the longest compressed runs, so it
			// also pins run-aware fault replay across worker counts.
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

// acquireEmpty builds (or hits) an empty prep under key and releases it.
func acquireEmpty(t *testing.T, r *Runner, key prepKey) {
	t.Helper()
	_, release, err := r.preps.Acquire(context.Background(), key, func() (*prep, error) { return &prep{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// TestPrepLRUEviction checks the bounded prep cache evicts the least
// recently used completed entry — not a recently touched one, and never an
// in-flight one.
func TestPrepLRUEviction(t *testing.T) {
	r := NewRunner()
	key := func(i int) prepKey { return prepKey{app: fmt.Sprintf("a%d", i)} }
	for i := 0; i < maxPreps; i++ {
		acquireEmpty(t, r, key(i))
	}
	// Touch the oldest entry so a1 becomes the LRU victim, then add one.
	acquireEmpty(t, r, key(0))
	acquireEmpty(t, r, key(maxPreps))
	if n := r.preps.Len(); n != maxPreps {
		t.Fatalf("preps = %d after eviction, want %d", n, maxPreps)
	}
	if r.preps.Has(key(1)) {
		t.Error("least recently used entry a1 survived eviction")
	}
	if !r.preps.Has(key(0)) {
		t.Error("recently touched entry a0 was evicted")
	}

	// In-flight preparations are never evicted: with every slot held by
	// a blocked build, one more entry overflows the cache instead.
	r = NewRunner()
	gate := make(chan struct{})
	var started, done sync.WaitGroup
	for i := 0; i < maxPreps; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			_, release, err := r.preps.Acquire(context.Background(), key(i), func() (*prep, error) {
				started.Done()
				<-gate
				return &prep{}, nil
			})
			if err == nil {
				release()
			}
		}(i)
	}
	started.Wait()
	acquireEmpty(t, r, key(maxPreps))
	if n := r.preps.Len(); n != maxPreps+1 {
		t.Errorf("in-flight entries were evicted: preps = %d, want %d", n, maxPreps+1)
	}
	close(gate)
	done.Wait()
}

// TestPrepRecycleDeferredToRelease checks the buffer-pool safety contract:
// evicting a preparation that a simulation still references must not
// recycle its stream buffers; the recycle happens at the final release.
func TestPrepRecycleDeferredToRelease(t *testing.T) {
	r := NewRunner()
	nt := &trace.NestTrace{Streams: [][]trace.Access{make([]trace.Access, 4, 8)}}
	victim := prepKey{app: "victim"}
	_, release, err := r.preps.Acquire(context.Background(), victim, func() (*prep, error) {
		return &prep{traces: []*trace.NestTrace{nt}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxPreps; i++ {
		acquireEmpty(t, r, prepKey{app: fmt.Sprintf("a%d", i)})
	}
	if r.preps.Has(victim) {
		t.Fatal("LRU victim survived eviction")
	}
	if nt.Streams[0] == nil {
		t.Fatal("stream buffers recycled while still referenced")
	}

	release()
	if nt.Streams[0] != nil {
		t.Error("stream buffer not returned to the pool")
	}
	if buf := r.pool.Get(); buf == nil || cap(buf) != 8 {
		t.Errorf("pool did not receive the recycled buffer (got %v)", buf)
	}
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
