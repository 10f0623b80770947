package parallel

import (
	"slices"
	"testing"
	"testing/quick"

	"flopt/internal/linalg"
	"flopt/internal/poly"
)

func nest2d(n int64, u int) *poly.LoopNest {
	a := &poly.Array{Name: "A", Dims: []int64{n, n}}
	return &poly.LoopNest{
		Loops: []poly.Loop{
			{Name: "i", Lower: poly.Constant(0), Upper: poly.Constant(n - 1)},
			{Name: "j", Lower: poly.Constant(0), Upper: poly.Constant(n - 1)},
		},
		ParallelLoop: u,
		Refs: []*poly.Reference{{
			Array: a, Q: linalg.Identity(2), Offset: linalg.Vec{0, 0},
		}},
	}
}

func TestNewPlanEvenSplit(t *testing.T) {
	p, err := NewPlan(nest2d(64, 0), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks != 4 || p.BlockSize != 16 {
		t.Fatalf("blocks=%d size=%d, want 4/16", p.NumBlocks, p.BlockSize)
	}
	if p.ThreadOf(0) != 0 || p.ThreadOf(15) != 0 || p.ThreadOf(16) != 1 || p.ThreadOf(63) != 3 {
		t.Error("thread assignment wrong")
	}
}

func TestNewPlanRoundRobin(t *testing.T) {
	p, err := NewPlan(nest2d(64, 0), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks != 16 || p.BlockSize != 4 {
		t.Fatalf("blocks=%d size=%d, want 16/4", p.NumBlocks, p.BlockSize)
	}
	// Block b → thread b%4; iterator 4..7 is block 1 → thread 1,
	// iterator 16..19 is block 4 → thread 0 again.
	if p.ThreadOf(5) != 1 || p.ThreadOf(17) != 0 || p.ThreadOf(63) != 3 {
		t.Error("round-robin assignment wrong")
	}
	// Thread 2 owns exactly blocks 2, 6, 10 and 14.
	var owned []int
	for b := 0; b < p.NumBlocks; b++ {
		if p.ThreadOfBlock(b) == 2 {
			owned = append(owned, b)
		}
	}
	if !slices.Equal(owned, []int{2, 6, 10, 14}) {
		t.Errorf("thread 2 owns blocks %v, want [2 6 10 14]", owned)
	}
}

func TestNewPlanUnevenLastBlock(t *testing.T) {
	p, err := NewPlan(nest2d(10, 0), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// span 10 over 4 blocks ⇒ block size 3, so only 4 blocks (last short).
	if p.BlockSize != 3 || p.NumBlocks != 4 {
		t.Fatalf("size=%d blocks=%d", p.BlockSize, p.NumBlocks)
	}
	if p.ThreadOf(9) != 3 {
		t.Errorf("last iteration on thread %d, want 3", p.ThreadOf(9))
	}
}

func TestNewPlanMoreThreadsThanIterations(t *testing.T) {
	p, err := NewPlan(nest2d(3, 0), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks != 3 || p.BlockSize != 1 {
		t.Fatalf("blocks=%d size=%d, want 3/1", p.NumBlocks, p.BlockSize)
	}
}

func TestNewPlanInnerParallelLoop(t *testing.T) {
	p, err := NewPlan(nest2d(32, 1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.U != 1 {
		t.Errorf("U = %d, want 1", p.U)
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(nest2d(8, 0), 0, 1); err == nil {
		t.Error("zero threads accepted")
	}
	bad := nest2d(8, 0)
	bad.Loops[0].Upper = poly.Constant(-1)
	if _, err := NewPlan(bad, 2, 1); err == nil {
		t.Error("empty range accepted")
	}
}

func TestBlockOfPanicsOutOfRange(t *testing.T) {
	p, _ := NewPlan(nest2d(8, 0), 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.BlockOf(99)
}

// Every iteration must land on exactly one thread, and each thread's share
// must be within one block of even.
func TestPlanCoversAllIterations(t *testing.T) {
	f := func(nSeed, tSeed, bSeed uint8) bool {
		n := int64(nSeed%60) + 4
		threads := int(tSeed%7) + 1
		bpt := int(bSeed%3) + 1
		p, err := NewPlan(nest2d(n, 0), threads, bpt)
		if err != nil {
			return false
		}
		counts := make([]int64, threads)
		for v := p.Lo; v <= p.Hi; v++ {
			th := p.ThreadOf(v)
			if th < 0 || th >= threads {
				return false
			}
			counts[th]++
		}
		var total int64
		maxShare := int64(0)
		for _, c := range counts {
			total += c
			if c > maxShare {
				maxShare = c
			}
		}
		if total != n {
			return false
		}
		// No thread may own more than ceil(blocksOwned)·blockSize iterations.
		blocksPerThread := int64((p.NumBlocks + threads - 1) / threads)
		return maxShare <= blocksPerThread*p.BlockSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIdentityMapping(t *testing.T) {
	m := IdentityMapping(8)
	for i := 0; i < 8; i++ {
		if m.Node(i) != i {
			t.Fatalf("identity mapping moved thread %d to %d", i, m.Node(i))
		}
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestStandardMappings(t *testing.T) {
	ms := StandardMappings(64)
	if len(ms) != 4 {
		t.Fatalf("got %d mappings", len(ms))
	}
	for _, m := range ms {
		if m.Len() != 64 {
			t.Errorf("%s has length %d", m.Name, m.Len())
		}
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
	}
	// Mappings II–IV must differ from identity and from each other.
	for a := 1; a < 4; a++ {
		same := true
		for i := 0; i < 64; i++ {
			if ms[a].Node(i) != i {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s equals identity", ms[a].Name)
		}
		for b := a + 1; b < 4; b++ {
			same := true
			for i := 0; i < 64; i++ {
				if ms[a].Node(i) != ms[b].Node(i) {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s equals %s", ms[a].Name, ms[b].Name)
			}
		}
	}
}

func TestPermutedMappingDeterministic(t *testing.T) {
	a := PermutedMapping("x", 32, 12345)
	b := PermutedMapping("x", 32, 12345)
	for i := 0; i < 32; i++ {
		if a.Node(i) != b.Node(i) {
			t.Fatal("same seed gave different permutations")
		}
	}
}
