// Package parallel implements the loop parallelization and distribution
// strategy of paper §3: the iteration space of each nest is evenly cut into
// iteration blocks by hyperplanes orthogonal to a chosen loop u, and the
// blocks are assigned to threads round-robin in thread order. It also
// provides the thread→compute-node mappings evaluated in Fig. 7(b).
package parallel

import (
	"fmt"

	"flopt/internal/linalg"
	"flopt/internal/poly"
)

// Plan is the parallelization of a single loop nest for a given thread
// count: `x = NumBlocks` iteration blocks along loop U, block b handled by
// thread b mod Threads.
type Plan struct {
	Nest      *poly.LoopNest
	U         int   // parallelized loop (index into Nest.Loops)
	Lo, Hi    int64 // inclusive bounds of loop U (evaluated rectangularly)
	Threads   int
	NumBlocks int
	BlockSize int64 // iterations of loop U per block (last block may be short)
}

// DefaultPlans builds the standard parallelization of every nest of p:
// one iteration block per thread.
func DefaultPlans(p *poly.Program, threads int) (map[*poly.LoopNest]*Plan, error) {
	plans := make(map[*poly.LoopNest]*Plan, len(p.Nests))
	for _, n := range p.Nests {
		plan, err := NewPlan(n, threads, 1)
		if err != nil {
			return nil, err
		}
		plans[n] = plan
	}
	return plans, nil
}

// NewPlan builds the parallelization plan for nest with the given thread
// count. blocksPerThread scales the number of iteration blocks
// (x = threads·blocksPerThread); the paper's default distribution uses one
// block per thread. The bounds of loop U are evaluated with enclosing
// iterators at their own lower bounds, which is exact for rectangular
// nests.
func NewPlan(nest *poly.LoopNest, threads, blocksPerThread int) (*Plan, error) {
	if threads < 1 {
		return nil, fmt.Errorf("parallel: thread count %d < 1", threads)
	}
	if blocksPerThread < 1 {
		blocksPerThread = 1
	}
	u := nest.ParallelLoop
	outer := make(linalg.Vec, 0, u)
	for k := 0; k < u; k++ {
		lo, _ := nest.Bounds(k, outer)
		outer = append(outer, lo)
	}
	lo, hi := nest.Bounds(u, outer)
	if hi < lo {
		return nil, fmt.Errorf("parallel: loop %d has empty range [%d, %d]", u, lo, hi)
	}
	span := hi - lo + 1
	x := threads * blocksPerThread
	if int64(x) > span {
		x = int(span)
	}
	bs := (span + int64(x) - 1) / int64(x)
	// Recompute the effective block count: ceil division may leave trailing
	// blocks empty (e.g. span 10, x 8 ⇒ bs 2 ⇒ only 5 blocks used).
	x = int((span + bs - 1) / bs)
	return &Plan{Nest: nest, U: u, Lo: lo, Hi: hi, Threads: threads, NumBlocks: x, BlockSize: bs}, nil
}

// BlockOf returns the iteration-block index (0-based) of a value of the
// parallelized iterator.
func (p *Plan) BlockOf(uVal int64) int {
	if uVal < p.Lo || uVal > p.Hi {
		panic(fmt.Sprintf("parallel: iterator value %d outside [%d, %d]", uVal, p.Lo, p.Hi))
	}
	return int((uVal - p.Lo) / p.BlockSize)
}

// ThreadOfBlock returns the thread that executes iteration block b
// (round-robin assignment in thread order, paper §3).
func (p *Plan) ThreadOfBlock(b int) int { return b % p.Threads }

// ThreadOf returns the thread that executes the iteration with the given
// value of the parallelized iterator.
func (p *Plan) ThreadOf(uVal int64) int { return p.ThreadOfBlock(p.BlockOf(uVal)) }

// Mapping is a thread→compute-node assignment. The paper's Mapping I is the
// identity; Mappings II–IV are fixed pseudo-random permutations.
type Mapping struct {
	Name string
	perm []int
}

// IdentityMapping returns the default mapping (thread t on node t).
func IdentityMapping(n int) Mapping {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return Mapping{Name: "Mapping I", perm: perm}
}

// PermutedMapping returns a deterministic pseudo-random permutation mapping
// derived from seed. Distinct seeds give distinct (but reproducible)
// permutations; seed 0 returns the identity.
func PermutedMapping(name string, n int, seed uint64) Mapping {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if seed != 0 {
		s := seed
		for i := n - 1; i > 0; i-- {
			// xorshift64* step; cheap, deterministic, dependency-free.
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			j := int(s % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return Mapping{Name: name, perm: perm}
}

// StandardMappings returns the four thread-to-compute-node mappings of
// Fig. 7(b) for n threads.
func StandardMappings(n int) []Mapping {
	return []Mapping{
		IdentityMapping(n),
		PermutedMapping("Mapping II", n, 0x9E3779B97F4A7C15),
		PermutedMapping("Mapping III", n, 0xD1B54A32D192ED03),
		PermutedMapping("Mapping IV", n, 0x2545F4914F6CDD1D),
	}
}

// MappingFromPerm builds a mapping from an explicit thread→slot
// permutation, validating it.
func MappingFromPerm(name string, perm []int) (Mapping, error) {
	m := Mapping{Name: name, perm: append([]int(nil), perm...)}
	if err := m.Validate(); err != nil {
		return Mapping{}, err
	}
	return m, nil
}

// Node returns the compute node that runs thread t.
func (m Mapping) Node(t int) int { return m.perm[t] }

// Len returns the number of threads covered by the mapping.
func (m Mapping) Len() int { return len(m.perm) }

// Validate checks that the mapping is a permutation.
func (m Mapping) Validate() error {
	seen := make([]bool, len(m.perm))
	for _, p := range m.perm {
		if p < 0 || p >= len(m.perm) || seen[p] {
			return fmt.Errorf("parallel: mapping %q is not a permutation", m.Name)
		}
		seen[p] = true
	}
	return nil
}
