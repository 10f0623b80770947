package flopt

// Cross-module integration tests: the full pipeline (parse → optimize →
// layout → trace → simulate) over every benchmark workload, checking the
// invariants that hold regardless of calibration.

import (
	"context"
	"testing"

	"flopt/internal/layout"
	"flopt/internal/linalg"
)

// TestAllWorkloadLayoutsBijective verifies, for every array of every
// workload under the default platform, that the chosen layout maps the
// data space injectively into [0, SizeElems()) — data written under the
// layout can never collide or fall outside the file.
func TestAllWorkloadLayoutsBijective(t *testing.T) {
	cfg := DefaultConfig()
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range p.Arrays {
				l := res.Layouts[a.Name]
				seen := make(map[int64]struct{}, a.Size())
				idx := make(linalg.Vec, a.Rank())
				var walk func(k int)
				collision := false
				var bad linalg.Vec
				walk = func(k int) {
					if collision {
						return
					}
					if k == a.Rank() {
						off := l.Offset(idx)
						if off < 0 || off >= l.SizeElems() {
							collision = true
							bad = idx.Clone()
							return
						}
						if _, dup := seen[off]; dup {
							collision = true
							bad = idx.Clone()
							return
						}
						seen[off] = struct{}{}
						return
					}
					for v := int64(0); v < a.Dims[k]; v++ {
						idx[k] = v
						walk(k + 1)
					}
				}
				walk(0)
				if collision {
					t.Errorf("%s/%s (%s): offset collision or out-of-range at %v",
						w.Name, a.Name, l.Name(), bad)
				}
				// File overhead must stay bounded: the layout may leave
				// alignment holes but not balloon the file.
				if l.SizeElems() > 2*a.Size()+int64(cfg.BlockElems)*int64(cfg.Threads()) {
					t.Errorf("%s/%s: file size %d elements for a %d-element array",
						w.Name, a.Name, l.SizeElems(), a.Size())
				}
			}
		})
	}
}

// TestTransformsSatisfyEq3 re-verifies Step I's defining property directly
// from the definition: for every satisfied reference group of every
// optimized array, any two iterations on the same iteration hyperplane
// access elements on the same data hyperplane (h_A·D·Q·E_u = 0).
func TestTransformsSatisfyEq3(t *testing.T) {
	cfg := DefaultConfig()
	for _, w := range Workloads() {
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range p.Arrays {
			tr := res.Transforms[a.Name]
			if tr == nil || !tr.Optimized() {
				continue
			}
			for _, g := range tr.Satisfied {
				for _, rn := range g.Refs {
					plan := res.Plans[rn.Nest]
					n := rn.Nest.Depth()
					if n < 2 {
						continue
					}
					// w·Q·Δ must vanish for every Δ with Δ[u] = 0.
					for k := 0; k < n; k++ {
						if k == plan.U {
							continue
						}
						delta := make(linalg.Vec, n)
						delta[k] = 1
						moved := tr.W.Dot(rn.Ref.Q.MulVec(delta))
						if moved != 0 {
							t.Errorf("%s/%s: Eq.3 violated for %s along loop %d (moved %d)",
								w.Name, a.Name, rn.Ref, k, moved)
						}
					}
				}
			}
			if !tr.D.IsUnimodular() {
				t.Errorf("%s/%s: D not unimodular", w.Name, a.Name)
			}
		}
	}
}

// TestThreadOwnershipConsistent checks that Transform.ThreadOf agrees with
// the layout's chunk placement: an element owned by thread t must land in
// a file region whose pattern position belongs to t.
func TestThreadOwnershipConsistent(t *testing.T) {
	cfg := DefaultConfig()
	w, err := WorkloadByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Array("UU")
	tr := res.Transforms[a.Name]
	ol, ok := res.Layouts[a.Name].(*layout.OptimizedLayout)
	if !ok {
		t.Fatal("UU should be optimized")
	}
	// Group offsets by owner; each owner's offsets must be disjoint
	// chunk-aligned regions (no offset shared between owners is already
	// guaranteed by bijectivity; here we check region granularity).
	chunk := ol.P.ChunkElems
	ownerOfChunk := map[int64]int{}
	idx := make(linalg.Vec, a.Rank())
	for i := int64(0); i < a.Dims[0]; i++ {
		for j := int64(0); j < a.Dims[1]; j++ {
			idx[0], idx[1] = i, j
			th := tr.ThreadOf(idx)
			c := ol.Offset(idx) / chunk
			if prev, ok := ownerOfChunk[c]; ok && prev != th {
				t.Fatalf("chunk %d shared by threads %d and %d", c, prev, th)
			}
			ownerOfChunk[c] = th
		}
	}
}

// TestPipelineDeterministicAcrossRuns runs one workload end-to-end twice
// and requires identical reports (the whole pipeline is deterministic).
func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ComputeNodes, cfg.IONodes, cfg.StorageNodes = 8, 4, 2
	w, err := WorkloadByName("cc-ver-1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), p, cfg, WithResult(res))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.ExecTimeUS != r2.ExecTimeUS || r1.IO != r2.IO || r1.Storage != r2.Storage || r1.DiskReads != r2.DiskReads {
		t.Error("pipeline is not deterministic across fresh runs")
	}
}

// TestGroup1Neutrality: the optimization must never hurt the three
// group-1 applications by more than 6 % (the paper shows them flat).
func TestGroup1Neutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	cfg := DefaultConfig()
	for _, name := range []string{"cc-ver-1", "s3asim", "twer"} {
		w, _ := WorkloadByName(name)
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before, err := Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		after, err := Run(context.Background(), p, cfg, WithResult(res))
		if err != nil {
			t.Fatal(err)
		}
		if imp := Improvement(before, after); imp < -0.06 {
			t.Errorf("%s: optimization hurt by %.1f%%", name, -100*imp)
		}
	}
}
