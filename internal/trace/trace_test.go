package trace

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"flopt/internal/lang"
	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/poly"
)

func setup(t *testing.T, src string, threads int) (*poly.Program, map[*poly.LoopNest]*parallel.Plan, *FileTable) {
	t.Helper()
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	plans := make(map[*poly.LoopNest]*parallel.Plan)
	for _, n := range p.Nests {
		plan, err := parallel.NewPlan(n, threads, 1)
		if err != nil {
			t.Fatal(err)
		}
		plans[n] = plan
	}
	ft, err := NewFileTable(p, layout.DefaultLayouts(p))
	if err != nil {
		t.Fatal(err)
	}
	return p, plans, ft
}

const rowSrc = `
array A[16][16];
parallel(i) for i = 0 to 15 { for j = 0 to 15 { read A[i][j]; } }
`

func TestGenerateRowMajorCoalesces(t *testing.T) {
	p, plans, ft := setup(t, rowSrc, 4)
	traces, err := Generate(p, plans, ft, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("nests = %d", len(traces))
	}
	nt := traces[0]
	// Each thread reads 4 rows of 16 elements = 64 elements = 8 blocks
	// after coalescing (block = 8 elements, rows are contiguous).
	for th, s := range nt.Streams {
		if len(s) != 8 {
			t.Errorf("thread %d stream length = %d, want 8", th, len(s))
		}
	}
	if nt.TotalAccesses() != 32 {
		t.Errorf("total = %d, want 32", nt.TotalAccesses())
	}
	// Thread 1 owns rows 4..7 ⇒ blocks 8..15 of file 0.
	want := uint32(8)
	for _, a := range nt.Streams[1] {
		if a.File != 0 || a.Block != want {
			t.Errorf("thread 1 access = %+v, want block %d", a, want)
		}
		want++
	}
}

func TestGenerateColumnAccessDoesNotCoalesce(t *testing.T) {
	src := `
array B[16][16];
parallel(i) for i = 0 to 15 { for j = 0 to 15 { read B[j][i]; } }
`
	p, plans, ft := setup(t, src, 4)
	traces, err := Generate(p, plans, ft, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Column access under row-major: every element is a fresh block
	// (stride 16 > block 8): 4 columns × 16 rows = 64 accesses per thread.
	for th, s := range traces[0].Streams {
		if len(s) != 64 {
			t.Errorf("thread %d stream = %d accesses, want 64", th, len(s))
		}
	}
}

func TestGenerateMultiRefOrder(t *testing.T) {
	src := `
array A[4][4];
array B[4][4];
parallel(i) for i = 0 to 3 { for j = 0 to 3 { read A[i][j]; write B[i][j]; } }
`
	p, plans, ft := setup(t, src, 1)
	traces, err := Generate(p, plans, ft, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := traces[0].Streams[0]
	// Per iteration the A access then the B access; A and B blocks
	// alternate (different files prevent coalescing).
	if len(s) < 2 || s[0].File == s[1].File {
		t.Fatalf("stream = %v", s[:2])
	}
	aID, bID := ft.ID("A"), ft.ID("B")
	if int32(s[0].File) != aID || int32(s[1].File) != bID {
		t.Errorf("first accesses = %+v, %+v", s[0], s[1])
	}
}

func TestGenerateOptimizedLayoutChangesBlocks(t *testing.T) {
	src := `
array B[32][32];
parallel(i) for i = 0 to 31 { for j = 0 to 31 { read B[j][i]; } }
`
	p, err := lang.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	h := layout.Hierarchy{Levels: []layout.Level{
		{Name: "SC1", CapacityElems: 64, Fanout: 2},
		{Name: "SC2", CapacityElems: 256, Fanout: 2},
	}}
	res, err := layout.Optimize(p, layout.Options{Hierarchy: h, BlockElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFileTable(p, res.Layouts)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := Generate(p, res.Plans, ft, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Optimized layout makes each thread's column sweep contiguous:
	// 8 columns × 32 rows = 256 elements = 32 blocks per thread.
	for th, s := range traces[0].Streams {
		if len(s) != 32 {
			t.Errorf("thread %d accesses = %d, want 32", th, len(s))
		}
	}
}

func TestGenerateOutOfBounds(t *testing.T) {
	src := `
array A[4][4];
parallel(i) for i = 0 to 4 { for j = 0 to 3 { read A[i][j]; } }
`
	p, plans, ft := setup(t, src, 2)
	if _, err := Generate(p, plans, ft, 4, 2); err == nil {
		t.Error("out-of-bounds access not reported")
	}
}

func TestGenerateBadArgs(t *testing.T) {
	p, plans, ft := setup(t, rowSrc, 2)
	if _, err := Generate(p, plans, ft, 0, 2); err == nil {
		t.Error("blockElems 0 accepted")
	}
	if _, err := Generate(p, map[*poly.LoopNest]*parallel.Plan{}, ft, 4, 2); err == nil {
		t.Error("missing plan accepted")
	}
	_ = plans
}

// TestGenerateWorkersDeterministic proves the parallel trace generator is
// bit-identical to the serial walk for every worker count: the iteration
// space is partitioned along the parallelized loop by thread blocks, so
// each per-thread stream is produced by exactly one worker in the same
// lexicographic order the serial generator visits.
func TestGenerateWorkersDeterministic(t *testing.T) {
	src := `
array A[32][32];
array B[32][32];
parallel(i) for i = 0 to 31 { for j = 0 to 31 { read A[i][j]; write B[j][i]; } }
parallel(j) for i = 0 to 31 { for j = 0 to 31 { read B[i][j]; } }
`
	p, plans, ft := setup(t, src, 8)
	for _, blockElems := range []int64{1, 3, 8, 64} {
		ref, err := GenerateWorkers(p, plans, ft, blockElems, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 16} {
			got, err := GenerateWorkers(p, plans, ft, blockElems, 8, workers)
			if err != nil {
				t.Fatalf("blk=%d workers=%d: %v", blockElems, workers, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("blk=%d workers=%d: %d nests, want %d", blockElems, workers, len(got), len(ref))
			}
			for ni := range ref {
				if !reflect.DeepEqual(got[ni].Streams, ref[ni].Streams) {
					t.Errorf("blk=%d workers=%d nest %d: streams differ from serial generation", blockElems, workers, ni)
				}
			}
			// The per-element walker must agree with the span emitter at
			// every block size and worker count.
			walked, err := generateWorkers(p, plans, ft, blockElems, 8, workers, true)
			if err != nil {
				t.Fatalf("blk=%d workers=%d walker: %v", blockElems, workers, err)
			}
			for ni := range ref {
				if !reflect.DeepEqual(ref[ni].Streams, walked[ni].Streams) {
					t.Errorf("blk=%d workers=%d nest %d: span emitter differs from walker", blockElems, workers, ni)
				}
			}
		}
	}
}

// TestGenerateWorkersOutOfBounds checks error propagation from shard
// workers (no panic escapes the goroutines).
func TestGenerateWorkersOutOfBounds(t *testing.T) {
	src := `
array A[4][4];
parallel(i) for i = 0 to 4 { for j = 0 to 3 { read A[i][j]; } }
`
	p, plans, ft := setup(t, src, 2)
	for _, workers := range []int{1, 2, 4} {
		if _, err := GenerateWorkers(p, plans, ft, 4, 2, workers); err == nil {
			t.Errorf("workers=%d: out-of-bounds access not reported", workers)
		}
	}
}

func TestFileTable(t *testing.T) {
	p, _, ft := setup(t, `
array Z[8];
array A[8];
for i = 0 to 7 { read A[i]; read Z[i]; }
`, 1)
	_ = p
	// Deterministic (sorted) ids.
	if ft.ID("A") != 0 || ft.ID("Z") != 1 {
		t.Errorf("ids: A=%d Z=%d", ft.ID("A"), ft.ID("Z"))
	}
	if ft.Blocks(0, 3) != 3 { // 8 elements / 3 per block → 3 blocks
		t.Errorf("Blocks = %d", ft.Blocks(0, 3))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown name should panic")
			}
		}()
		ft.ID("nope")
	}()
}

func TestNewFileTableMissingLayout(t *testing.T) {
	p, err := lang.Parse("t", rowSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileTable(p, map[string]layout.Layout{}); err == nil {
		t.Error("missing layout accepted")
	}
}

func TestElemsCounting(t *testing.T) {
	// A single-ref row scan coalesces whole blocks into one access each;
	// the Elems counter must preserve the total element-touch count.
	src := `
array A[4][16];
parallel(i) for i = 0 to 3 {
    for j = 0 to 15 {
        read A[i][j];
    }
}
`
	p, plans, ft := setup(t, src, 2)
	traces, err := Generate(p, plans, ft, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	nt := traces[0]
	var elems int64
	for _, s := range nt.Streams {
		for _, a := range s {
			if a.Elems < 1 {
				t.Fatalf("access with Elems = %d", a.Elems)
			}
			elems += int64(a.Elems)
		}
	}
	// Total element touches = 4×16 = 64 regardless of coalescing.
	if elems != 64 {
		t.Errorf("total elems = %d, want 64", elems)
	}
	if nt.TotalElems() != 64 {
		t.Errorf("TotalElems = %d", nt.TotalElems())
	}
	// Row scan with 8-element blocks: 16 elements per row = 2 blocks,
	// so each thread's 2 rows are 4 accesses of 8 coalesced elements.
	for th, s := range nt.Streams {
		if len(s) != 4 {
			t.Errorf("thread %d accesses = %d, want 4", th, len(s))
		}
		for _, a := range s {
			if a.Elems != 8 {
				t.Errorf("thread %d access elems = %d, want 8", th, a.Elems)
			}
		}
	}
}

// TestAccessSize pins the 12-byte trace entry: streams dominate the
// harness's memory, so a field that widens it shows up here first.
func TestAccessSize(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 12 {
		t.Errorf("sizeof(Access) = %d, want 12", n)
	}
}

// TestGenerateScratchReuse generates A, B and A again, concurrently, so
// the runs share pooled scratch buffers (run it under -race). The two A
// runs must agree, and every stream must be copied out at its exact
// length.
func TestGenerateScratchReuse(t *testing.T) {
	srcA := `
array A[64][64];
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; write B[j][i]; } }
`
	srcB := `
array C[128][32];
parallel(j) for i = 0 to 127 { for j = 0 to 31 { read C[i][j]; } }
`
	pA, plansA, ftA := setup(t, srcA, 8)
	pB, plansB, ftB := setup(t, srcB, 8)
	runs := []struct {
		p     *poly.Program
		plans map[*poly.LoopNest]*parallel.Plan
		ft    *FileTable
	}{{pA, plansA, ftA}, {pB, plansB, ftB}, {pA, plansA, ftA}}
	got := make([][]*NestTrace, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = GenerateWorkers(r.p, r.plans, r.ft, 4, 8, 2)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(got[0], got[2]) {
		t.Error("the two generations of A differ")
	}
	for i, traces := range got {
		for ni, nt := range traces {
			for th, s := range nt.Streams {
				if len(s) != cap(s) {
					t.Errorf("run %d nest %d thread %d: len %d, cap %d", i, ni, th, len(s), cap(s))
				}
			}
		}
	}
}

// TestGenerateRangeChecks checks that tables the narrowed Access fields
// cannot address are rejected with an error, not a panic or a silently
// truncated block index.
func TestGenerateRangeChecks(t *testing.T) {
	// 65536 × 65537 elements, above 2^32 blocks at one element per block;
	// the one iteration touches only element 0.
	src := `
array A[65536][65537];
for i = 0 to 0 { read A[i][i]; }
`
	p, plans, ft := setup(t, src, 1)
	if _, err := GenerateWorkers(p, plans, ft, 1, 1, 1); err == nil || !strings.Contains(err.Error(), "fit a trace entry") {
		t.Errorf("a file of 2^32 or more blocks: err = %v, want the block range error", err)
	}
	// Two elements per block bring it under the limit.
	if _, err := GenerateWorkers(p, plans, ft, 2, 1, 1); err != nil {
		t.Errorf("blockElems 2: %v", err)
	}

	// More arrays than a uint16 file id can name.
	p, plans, ft = setup(t, rowSrc, 1)
	for len(ft.Names) <= math.MaxUint16 {
		ft.Names = append(ft.Names, fmt.Sprintf("pad%d", len(ft.Names)))
		ft.Layouts = append(ft.Layouts, ft.Layouts[0])
	}
	if _, err := GenerateWorkers(p, plans, ft, 8, 1, 1); err == nil || !strings.Contains(err.Error(), "arrays exceed") {
		t.Errorf("%d arrays: err = %v, want the file id range error", len(ft.Names), err)
	}

	// More consecutive touches of one block than Access.Elems can count:
	// in one span, summed over spans, and over a group of references to
	// the same block. Each is emitted in O(blocks), so none takes long.
	for _, src := range []string{
		"parallel(i) for i = 0 to 3 { for j = 0 to 2999999999 { read A[i][0]; } }",
		"parallel(i) for i = 0 to 3 { for j = 0 to 2 { for k = 0 to 999999999 { read A[i][0]; } } }",
		"parallel(i) for i = 0 to 3 { for j = 0 to 1999999999 { read A[i][0]; read A[i][1]; } }",
	} {
		p, plans, ft = setup(t, "array A[4][4];\n"+src, 4)
		for _, workers := range []int{1, 4} {
			if _, err := GenerateWorkers(p, plans, ft, 4, 4, workers); !errors.Is(err, errElemsOverflow) {
				t.Errorf("%s (workers %d): err = %v, want the element count error", src, workers, err)
			}
		}
	}
	// Exactly math.MaxInt32 touches still fit one entry.
	p, plans, ft = setup(t, "array A[4][4];\nparallel(i) for i = 0 to 3 { for j = 0 to 2147483646 { read A[i][0]; } }", 4)
	traces, err := GenerateWorkers(p, plans, ft, 4, 4, 1)
	if err != nil {
		t.Fatalf("math.MaxInt32 touches: %v", err)
	}
	if s := traces[0].Streams[1]; len(s) != 1 || s[0].Elems != math.MaxInt32 {
		t.Errorf("math.MaxInt32 touches: thread 1 stream = %+v", s)
	}
}
