package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"flopt/internal/sim"
)

// TestMetricSnapshotsAcrossWorkerCounts extends the determinism guarantee
// to the observability layer: with metrics collection on, the JSONL dump
// of every cell snapshot is byte-identical whether the table was built
// with 1, 4 or 8 workers. The collectors are machine-owned and driven by
// the virtual clock, so worker scheduling must never leak into them.
func TestMetricSnapshotsAcrossWorkerCounts(t *testing.T) {
	apps := Apps()[:3]
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	build := func(par int) []byte {
		r := NewRunner()
		r.Parallel = par
		tab := &Table{Columns: []string{"exec(s)"}}
		err := buildRows(context.Background(), r, tab, apps, func(app string) ([]float64, error) {
			rep, err := r.Run(app, cfg, SchemeDefault)
			if err != nil {
				return nil, err
			}
			return []float64{float64(rep.ExecTimeUS) / 1e6}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := r.MetricCells(); n != len(apps) {
			t.Fatalf("par=%d: %d cell snapshots, want %d", par, n, len(apps))
		}
		var buf bytes.Buffer
		if err := r.WriteMetricsJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := build(1)
	if len(ref) == 0 {
		t.Fatal("serial build produced no metrics output")
	}
	for _, par := range []int{4, 8} {
		if got := build(par); !bytes.Equal(ref, got) {
			t.Errorf("metrics JSONL with %d workers differs from serial output", par)
		}
	}
	// Every cell line carries the app and the full config fingerprint.
	for _, app := range apps {
		if !bytes.Contains(ref, []byte(`"cell":"`+app+`|default|policy=lru`)) {
			t.Errorf("no cell line for %s in output", app)
		}
	}
}

// TestRunnerMetricsOffByDefault: without cfg.Metrics the runner keeps
// no snapshots and reports carry none.
func TestRunnerMetricsOffByDefault(t *testing.T) {
	r := NewRunner()
	rep, err := r.Run("swim", sim.DefaultConfig(), SchemeDefault)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Error("Report.Metrics set without cfg.Metrics")
	}
	if n := r.MetricCells(); n != 0 {
		t.Errorf("%d cell snapshots recorded without cfg.Metrics", n)
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty runner wrote %q", buf.String())
	}
}

// TestCellKeyDistinguishesConfigs: the sweeps vary policy, capacities,
// block size, mapping and fault settings — each must land in its own cell.
func TestCellKeyDistinguishesConfigs(t *testing.T) {
	cfg := sim.DefaultConfig()
	base := cellKey("swim", cfg, SchemeDefault)
	if !strings.Contains(base, "swim|default") || !strings.Contains(base, "map=identity") {
		t.Errorf("base key = %q", base)
	}
	seen := map[string]string{base: "base"}
	variants := map[string]sim.Config{}
	c := cfg
	c.Policy = "karma"
	variants["policy"] = c
	c = cfg
	c.IOCacheBlocks *= 2
	variants["io-cache"] = c
	c = cfg
	c.BlockElems *= 2
	variants["block"] = c
	c = cfg
	c.ReadaheadBlocks = 2
	variants["readahead"] = c
	c = cfg
	c.FaultIntensity, c.FaultSeed = 0.5, 42
	variants["faults"] = c
	for name, vc := range variants {
		k := cellKey("swim", vc, SchemeDefault)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, k)
		}
		seen[k] = name
	}
	if k := cellKey("swim", cfg, SchemeInter); seen[k] != "" {
		t.Error("scheme change did not change the cell key")
	}
}

// TestBuildRowsCanceled: a canceled context aborts the table build with
// context.Canceled regardless of worker count.
func TestBuildRowsCanceled(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, par := range []int{1, 4} {
		r := NewRunner()
		r.Parallel = par
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tab := &Table{Columns: []string{"exec(s)"}}
		err := buildRows(ctx, r, tab, Apps()[:4], func(app string) ([]float64, error) {
			rep, err := r.RunContext(ctx, app, cfg, SchemeDefault)
			if err != nil {
				return nil, err
			}
			return []float64{float64(rep.ExecTimeUS)}, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("par=%d: err = %v, want context.Canceled", par, err)
		}
		if len(tab.Rows) != 0 {
			t.Errorf("par=%d: canceled build still produced %d rows", par, len(tab.Rows))
		}
	}
}
