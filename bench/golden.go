package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"flopt/internal/exp"
	"flopt/internal/service/api"
	"flopt/internal/sim"
	"flopt/internal/workloads"
)

// The goldens are the program's reference outputs, checked in under
// testdata/ and built into the binary; `-update` regenerates them.
//
//go:embed testdata
var testdata embed.FS

// reproTables are the tables the repro workload renders, in canonical
// order. Each has a golden testdata/<name>.txt.
var reproTables = []struct {
	name  string
	build func(context.Context, *exp.Runner, sim.Config) (*exp.Table, error)
}{
	{"table2", exp.Table2},
	{"fig7a", exp.Fig7a},
}

var (
	schemes  = []string{"default", "optimized"}
	policies = []string{"lru", "karma", "demote"}
)

// simKey names one simulation of the golden set.
type simKey struct {
	Program string `json:"program"`
	Scheme  string `json:"scheme"`
	Policy  string `json:"policy"`
}

// simStats is the part of a simulation report the goldens pin.
type simStats struct {
	simKey
	PolicyName      string `json:"policy_name"`
	ExecTimeUS      int64  `json:"exec_time_us"`
	Accesses        int64  `json:"accesses"`
	IOAccesses      int64  `json:"io_accesses"`
	IOMisses        int64  `json:"io_misses"`
	StorageAccesses int64  `json:"storage_accesses"`
	StorageMisses   int64  `json:"storage_misses"`
	DiskReads       int64  `json:"disk_reads"`
}

func statsOf(k simKey, r *sim.Report) simStats {
	return simStats{simKey: k, PolicyName: r.PolicyName, ExecTimeUS: r.ExecTimeUS, Accesses: r.Accesses,
		IOAccesses: r.IO.Accesses, IOMisses: r.IO.Misses,
		StorageAccesses: r.Storage.Accesses, StorageMisses: r.Storage.Misses, DiskReads: r.DiskReads}
}

// goldens holds the reference tables and simulation statistics.
type goldens struct {
	tables map[string]string
	sims   map[simKey]simStats
}

// loadGoldens reads the goldens from fsys (the embedded testdata, or a
// directory in tests).
func loadGoldens(fsys fs.FS) (*goldens, error) {
	g := &goldens{tables: map[string]string{}, sims: map[simKey]simStats{}}
	for _, t := range reproTables {
		b, err := fs.ReadFile(fsys, "testdata/"+t.name+".txt")
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		g.tables[t.name] = string(b)
	}
	b, err := fs.ReadFile(fsys, "testdata/sim.json")
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var list []simStats
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("golden: sim.json: %w", err)
	}
	for _, s := range list {
		g.sims[s.simKey] = s
	}
	return g, nil
}

func (g *goldens) checkTable(name, got string) error {
	if want := g.tables[name]; got != want {
		return fmt.Errorf("table %s differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
	return nil
}

func (g *goldens) checkReport(k simKey, r *sim.Report) error {
	want, ok := g.sims[k]
	if !ok {
		return fmt.Errorf("no golden for simulation %+v", k)
	}
	if got := statsOf(k, r); got != want {
		return fmt.Errorf("simulation %+v: got %+v, golden %+v", k, got, want)
	}
	return nil
}

// checkJob compares a floptd job report with the golden, deriving the
// miss percentages exactly as the service does.
func (g *goldens) checkJob(k simKey, r *api.SimReport) error {
	want, ok := g.sims[k]
	if !ok {
		return fmt.Errorf("no golden for job %+v", k)
	}
	pct := func(m, a int64) float64 {
		if a == 0 {
			return 0
		}
		return 100 * (float64(m) / float64(a))
	}
	ref := api.SimReport{ExecTimeUS: want.ExecTimeUS, Accesses: want.Accesses, DiskReads: want.DiskReads,
		IOMissPct: pct(want.IOMisses, want.IOAccesses), StorageMissPct: pct(want.StorageMisses, want.StorageAccesses),
		Policy: want.PolicyName}
	if *r != ref {
		return fmt.Errorf("job %+v: got %+v, golden %+v", k, *r, ref)
	}
	return nil
}

// writeGoldens regenerates every golden into dir: the repro tables from
// a cold runner, and every program × scheme × policy simulation on the
// serial engine (reports are identical at every shard count).
func writeGoldens(ctx context.Context, dir string, parallel int) error {
	r := exp.NewRunner()
	r.Parallel = parallel
	cfg := sim.DefaultConfig()
	for _, t := range reproTables {
		tab, err := t.build(ctx, r, cfg)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, t.name+".txt"), []byte(tab.Render()), 0o644); err != nil {
			return err
		}
	}
	progs, err := compileWorkloads(nil, workloads.Names(), cfg)
	if err != nil {
		return err
	}
	var list []simStats
	for _, pr := range progs {
		for _, scheme := range schemes {
			for _, pol := range policies {
				c := simCall{prog: pr, opt: scheme == "optimized", policy: pol}
				in, err := c.prepare(nil, -1, 0, parallel)
				if err != nil {
					return err
				}
				rep, err := in.simulate(ctx, 1)
				if err != nil {
					return err
				}
				list = append(list, statsOf(c.key(), rep))
			}
		}
	}
	b, err := json.MarshalIndent(list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "sim.json"), append(b, '\n'), 0o644)
}
