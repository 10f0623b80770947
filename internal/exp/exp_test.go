package exp

import (
	"context"
	"strings"
	"testing"

	"flopt/internal/sim"
)

// fastConfig shrinks the platform so experiment tests stay quick; the
// shapes (who wins) are scale-independent.
func fastConfig() sim.Config {
	c := sim.DefaultConfig()
	return c
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{App: "x", Values: []float64{1, 2}},
			{App: "longer-name", Values: []float64{3, 4}},
		},
		Formats: []string{"%.0f", "%.1f"},
		Note:    "hello",
	}
	tab.FillAverages()
	out := tab.Render()
	for _, want := range []string{"demo", "longer-name", "average", "hello", "2.0", "3.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tab.Average[0] != 2 || tab.Average[1] != 3 {
		t.Errorf("averages = %v", tab.Average)
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1(fastConfig())
	for _, want := range []string{"compute nodes", "64", "I/O nodes", "16", "storage nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestSchemes(t *testing.T) {
	if len(Schemes()) != 8 {
		t.Errorf("schemes = %v", Schemes())
	}
	if len(Apps()) != 16 {
		t.Errorf("apps = %d", len(Apps()))
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run("nonesuch", fastConfig(), SchemeDefault); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := r.Run("swim", fastConfig(), Scheme("bogus")); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunnerCachesPreparations(t *testing.T) {
	r := NewRunner()
	cfg := fastConfig()
	if _, err := r.Run("cc-ver-1", cfg, SchemeDefault); err != nil {
		t.Fatal(err)
	}
	n := r.preps.Len()
	if _, err := r.Run("cc-ver-1", cfg, SchemeDefault); err != nil {
		t.Fatal(err)
	}
	if r.preps.Len() != n {
		t.Error("second run did not reuse the cached preparation")
	}
	// A capacity change must NOT invalidate default-scheme traces…
	cfg2 := cfg
	cfg2.IOCacheBlocks *= 2
	if _, err := r.Run("cc-ver-1", cfg2, SchemeDefault); err != nil {
		t.Fatal(err)
	}
	if r.preps.Len() != n {
		t.Error("capacity change should reuse default traces")
	}
	// …but it must invalidate inter-scheme layouts (they depend on it).
	if _, err := r.Run("cc-ver-1", cfg, SchemeInter); err != nil {
		t.Fatal(err)
	}
	n2 := r.preps.Len()
	if _, err := r.Run("cc-ver-1", cfg2, SchemeInter); err != nil {
		t.Fatal(err)
	}
	if r.preps.Len() != n2+1 {
		t.Error("capacity change should re-prepare inter layouts")
	}
}

func TestOptStatsShape(t *testing.T) {
	r := NewRunner()
	tab, err := OptStats(context.Background(), r, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var opt, total float64
	for _, row := range tab.Rows {
		total += row.Values[0]
		opt += row.Values[1]
		if row.Values[2] < 0 || row.Values[2] > 1 {
			t.Errorf("%s fraction = %f", row.App, row.Values[2])
		}
	}
	if frac := opt / total; frac < 0.55 || frac > 0.92 {
		t.Errorf("overall optimized fraction = %.2f, want near 0.72", frac)
	}
}

// The headline result: Fig 7(a) group structure. Group 1 ≈ 1.0; every
// group-3 app beats every group-2 app; overall mean in the paper's
// improvement ballpark.
func TestFig7aGroupStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-app simulation in -short mode")
	}
	r := NewRunner()
	tab, err := Fig7a(context.Background(), r, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	norm := map[string]float64{}
	for _, row := range tab.Rows {
		norm[row.App] = row.Values[0]
	}
	for _, app := range []string{"cc-ver-1", "s3asim", "twer"} {
		if v := norm[app]; v < 0.95 || v > 1.06 {
			t.Errorf("group-1 app %s = %.3f, want ≈ 1.0", app, v)
		}
	}
	group2 := []string{"bt", "cc-ver-2", "astro", "wupwise", "contour", "mgrid"}
	group3 := []string{"swim", "afores", "sar", "hf", "qio", "applu", "sp"}
	worst3 := 0.0
	for _, app := range group3 {
		if norm[app] > worst3 {
			worst3 = norm[app]
		}
	}
	for _, app := range group2 {
		if norm[app] <= worst3 {
			t.Errorf("group-2 app %s (%.3f) should improve less than every group-3 app (max %.3f)",
				app, norm[app], worst3)
		}
		if norm[app] >= 1.0 {
			t.Errorf("group-2 app %s shows no improvement: %.3f", app, norm[app])
		}
	}
	if avg := tab.Average[0]; avg < 0.55 || avg > 0.85 {
		t.Errorf("average normalized exec = %.3f, want in the paper's ballpark (0.763)", avg)
	}
}
