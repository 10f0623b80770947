// Package baseline reimplements the two prior compiler-guided schemes the
// paper compares against in Fig. 7(g):
//
//   - Reindex: the profile-guided file layout optimization of Kandemir,
//     Son & Karakoy [FAST'08] — dimension reindexing. For every
//     disk-resident array all dimension permutations are tried and the
//     one with the best simulated execution time is kept (the paper's own
//     methodology: "using profiling, we exhaustively tried all possible
//     dimension reindexings ... and selected the one that generated the
//     best execution time").
//
//   - ComputationMapping: the computation-remapping scheme of Kandemir,
//     Muralidhara, Karakoy & Son [HPDC'10] — iterations are clustered so
//     that threads sharing data end up behind the same storage caches.
//     File layouts stay row-major; what changes is the thread-to-node
//     placement.
package baseline

import (
	"fmt"
	"sort"

	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/trace"
)

// permutations returns all permutations of [0, n) in lexicographic order.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]int, n)
			copy(p, cur)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	sort.Slice(out, func(a, b int) bool {
		for i := range out[a] {
			if out[a][i] != out[b][i] {
				return out[a][i] < out[b][i]
			}
		}
		return false
	})
	return out
}

// Reindex runs the [27] baseline on program p under platform cfg: a
// profile-driven coordinate descent that, array by array, tries every
// dimension permutation (holding the other arrays at their current best)
// and keeps the fastest. Returns the chosen layouts.
func Reindex(p *poly.Program, cfg sim.Config) (map[string]layout.Layout, error) {
	plans, err := parallel.DefaultPlans(p, cfg.Threads())
	if err != nil {
		return nil, err
	}
	best := layout.DefaultLayouts(p)
	measure := func(ls map[string]layout.Layout) (int64, error) {
		ft, err := trace.NewFileTable(p, ls)
		if err != nil {
			return 0, err
		}
		traces, err := trace.Generate(p, plans, ft, cfg.BlockElems, cfg.Threads())
		if err != nil {
			return 0, err
		}
		rep, err := sim.Simulate(cfg, traces, nil)
		if err != nil {
			return 0, err
		}
		return rep.ExecTimeUS, nil
	}
	bestTime, err := measure(best)
	if err != nil {
		return nil, err
	}
	for _, a := range p.Arrays {
		if a.Rank() < 2 {
			continue // nothing to reindex
		}
		for _, perm := range permutations(a.Rank()) {
			cand := layout.Permuted(a, perm)
			if cand.Name() == best[a.Name].Name() {
				continue
			}
			trial := make(map[string]layout.Layout, len(best))
			for k, v := range best {
				trial[k] = v
			}
			trial[a.Name] = cand
			t, err := measure(trial)
			if err != nil {
				return nil, err
			}
			if t < bestTime {
				bestTime = t
				best = trial
			}
		}
	}
	return best, nil
}

// ComputationMapping runs the [26] baseline: given the default-layout
// traces of a program, it computes the pairwise data sharing between
// threads and greedily packs the threads that share the most blocks onto
// the same I/O node, returning the resulting thread-to-compute-node
// mapping. File layouts are untouched.
func ComputationMapping(cfg sim.Config, traces []*trace.NestTrace) (parallel.Mapping, error) {
	threads := cfg.Threads()
	if threads%cfg.IONodes != 0 {
		return parallel.Mapping{}, fmt.Errorf("baseline: %d threads not divisible by %d I/O nodes", threads, cfg.IONodes)
	}
	group := threads / cfg.IONodes

	// Footprints: the set of blocks each thread touches.
	type blockKey struct {
		file  int32
		block int64
	}
	foot := make([]map[blockKey]struct{}, threads)
	for t := range foot {
		foot[t] = make(map[blockKey]struct{})
	}
	for _, nt := range traces {
		for t, stream := range nt.Streams {
			for _, acc := range stream {
				for b := acc.Block; b <= acc.Block+int64(acc.Run); b++ {
					foot[t][blockKey{acc.File, b}] = struct{}{}
				}
			}
		}
	}
	// Pairwise shared-block counts.
	share := make([][]int, threads)
	for i := range share {
		share[i] = make([]int, threads)
	}
	for i := 0; i < threads; i++ {
		for j := i + 1; j < threads; j++ {
			small, large := foot[i], foot[j]
			if len(small) > len(large) {
				small, large = large, small
			}
			n := 0
			for b := range small {
				if _, ok := large[b]; ok {
					n++
				}
			}
			share[i][j], share[j][i] = n, n
		}
	}

	// Greedy clustering: seed each I/O-node group with the unassigned
	// thread having the largest total sharing, then add its best partners.
	assigned := make([]bool, threads)
	perm := make([]int, threads) // perm[thread] = compute-node slot
	slot := 0
	totalShare := func(t int) int {
		s := 0
		for u := 0; u < threads; u++ {
			if !assigned[u] && u != t {
				s += share[t][u]
			}
		}
		return s
	}
	for slot < threads {
		seed := -1
		bestScore := -1
		for t := 0; t < threads; t++ {
			if assigned[t] {
				continue
			}
			if s := totalShare(t); s > bestScore {
				bestScore, seed = s, t
			}
		}
		cluster := []int{seed}
		assigned[seed] = true
		for len(cluster) < group {
			bestT, bestS := -1, -1
			for t := 0; t < threads; t++ {
				if assigned[t] {
					continue
				}
				s := 0
				for _, c := range cluster {
					s += share[c][t]
				}
				if s > bestS || (s == bestS && bestT < 0) {
					bestS, bestT = s, t
				}
			}
			cluster = append(cluster, bestT)
			assigned[bestT] = true
		}
		for _, t := range cluster {
			perm[t] = slot
			slot++
		}
	}
	// Keep the clustering only if it beats the identity placement on its
	// own objective — the summed sharing co-located within I/O-node
	// groups. (The iterative scheme of [26] likewise starts from the
	// default distribution and only applies beneficial re-clusterings.)
	coLocated := func(perm []int) int {
		s := 0
		for i := 0; i < threads; i++ {
			for j := i + 1; j < threads; j++ {
				if perm[i]/group == perm[j]/group {
					s += share[i][j]
				}
			}
		}
		return s
	}
	identity := make([]int, threads)
	for i := range identity {
		identity[i] = i
	}
	if coLocated(perm) <= coLocated(identity) {
		return parallel.MappingFromPerm("computation-mapping", identity)
	}
	return parallel.MappingFromPerm("computation-mapping", perm)
}
