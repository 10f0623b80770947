package cache

import (
	"math/rand"
	"testing"
)

func TestInclusiveLRUPath(t *testing.T) {
	m := NewInclusiveLRU(2, 1, 2, 4)
	// Cold read: disk; block now at both levels.
	if out := m.Read(0, 0, b(0, 1)); out.Level != HitDisk {
		t.Errorf("cold read level = %v", out.Level)
	}
	// Same I/O cache: io hit.
	if out := m.Read(0, 0, b(0, 1)); out.Level != HitIO {
		t.Errorf("warm read level = %v", out.Level)
	}
	// Different I/O cache, same storage: storage hit (inclusive keeps it).
	if out := m.Read(1, 0, b(0, 1)); out.Level != HitStorage {
		t.Errorf("cross-io read level = %v", out.Level)
	}
	io, st := m.IOStats(), m.StorageStats()
	if io.Accesses != 3 || io.Hits != 1 {
		t.Errorf("io stats = %+v", io)
	}
	if st.Accesses != 2 || st.Hits != 1 {
		t.Errorf("storage stats = %+v", st)
	}
}

func TestInclusiveLRUReset(t *testing.T) {
	m := NewInclusiveLRU(1, 1, 2, 2)
	m.Read(0, 0, b(0, 1))
	m.Reset()
	if m.IOStats().Accesses != 0 {
		t.Error("reset incomplete")
	}
	if out := m.Read(0, 0, b(0, 1)); out.Level != HitDisk {
		t.Error("cache content survived reset")
	}
}

func TestDemoteLRUExclusivity(t *testing.T) {
	m := NewDemoteLRU(1, 1, 2, 2)
	// Disk fill goes only to the I/O level.
	if out := m.Read(0, 0, b(0, 1)); out.Level != HitDisk {
		t.Error("cold read should be a disk read")
	}
	// Storage must NOT hold block 1 (exclusive).
	if m.st[0].Contains(b(0, 1)) {
		t.Error("disk fill leaked into the storage level")
	}
	// Fill the I/O cache; evictions demote.
	m.Read(0, 0, b(0, 2))
	m.Read(0, 0, b(0, 3)) // io holds {2,3}; 1 demoted to storage
	if !m.st[0].Contains(b(0, 1)) {
		t.Error("victim was not demoted")
	}
	if m.Demotions() != 1 {
		t.Errorf("demotions = %d, want 1", m.Demotions())
	}
	// Reading block 1 again: storage hit, block moves up (removed below).
	out := m.Read(0, 0, b(0, 1))
	if out.Level != HitStorage {
		t.Errorf("re-read level = %v, want storage", out.Level)
	}
	if m.st[0].Contains(b(0, 1)) {
		t.Error("block stayed in storage after promotion (not exclusive)")
	}
	if !m.io[0].Contains(b(0, 1)) {
		t.Error("promoted block missing from the I/O level")
	}
}

func TestDemoteLRUDemotionFlag(t *testing.T) {
	m := NewDemoteLRU(1, 1, 1, 4)
	m.Read(0, 0, b(0, 1))
	out := m.Read(0, 0, b(0, 2)) // io full ⇒ insert of 2 demotes 1
	if !out.Demoted {
		t.Error("demotion not reported in outcome")
	}
	if m.StorageStats().Demotions != 1 {
		t.Errorf("storage demotion count = %d", m.StorageStats().Demotions)
	}
}

// Aggregate effective capacity of DEMOTE exceeds inclusive: a cyclic trace
// slightly larger than one level but no larger than both levels combined
// hits more under DEMOTE.
func TestDemoteBeatsInclusiveOnLargeLoop(t *testing.T) {
	const capIO, capST, blocks, rounds = 8, 8, 14, 30
	run := func(m Manager) int64 {
		for r := 0; r < rounds; r++ {
			for i := 0; i < blocks; i++ {
				m.Read(0, 0, b(0, int64(i)))
			}
		}
		return m.IOStats().Hits + m.StorageStats().Hits
	}
	inc := run(NewInclusiveLRU(1, 1, capIO, capST))
	dem := run(NewDemoteLRU(1, 1, capIO, capST))
	if dem <= inc {
		t.Errorf("DEMOTE hits (%d) should exceed inclusive hits (%d) on a loop of %d blocks", dem, inc, blocks)
	}
}

func TestDemoteLRUReset(t *testing.T) {
	m := NewDemoteLRU(1, 1, 1, 1)
	m.Read(0, 0, b(0, 1))
	m.Read(0, 0, b(0, 2))
	m.Reset()
	if m.Demotions() != 0 || m.IOStats().Accesses != 0 {
		t.Error("reset incomplete")
	}
}

func karmaHints() []RangeHint {
	return []RangeHint{
		{File: 0, Start: 0, End: 4, FreqPerIO: []float64{100, 0}}, // hot at io 0
		{File: 0, Start: 4, End: 8, FreqPerIO: []float64{0, 100}}, // hot at io 1
		{File: 1, Start: 0, End: 16, FreqPerIO: []float64{5, 5}},  // lukewarm, large
		{File: 2, Start: 0, End: 64, FreqPerIO: []float64{1, 1}},  // cold, huge
	}
}

func TestKARMAPlacement(t *testing.T) {
	k := NewKARMA(2, 1, 8, 24, karmaHints())
	// io 0 should host range 0 (density 25), io 1 range 1.
	if k.allocIO[0][0] != 4 {
		t.Errorf("io0 allocation of range 0 = %d, want 4", k.allocIO[0][0])
	}
	if k.allocIO[1][1] != 4 {
		t.Errorf("io1 allocation of range 1 = %d, want 4", k.allocIO[1][1])
	}
	// Residual demand for range 2 (density 10/16) beats range 3; storage
	// cache should host it.
	if k.allocST[0][2] == 0 {
		t.Error("storage should host range 2")
	}
}

func TestKARMAReadPath(t *testing.T) {
	// io capacity 8 → 2 reserved for the residual partition, 6 for
	// ranges: the hot range fills the io partition exactly, so the cold
	// large range lands only at the storage level.
	k := NewKARMA(2, 1, 8, 24, []RangeHint{
		{File: 0, Start: 0, End: 6, FreqPerIO: []float64{100, 100}},
		{File: 1, Start: 0, End: 16, FreqPerIO: []float64{1, 1}},
	})
	// Block in range 0 through io 0: first read disk, then io hits.
	if out := k.Read(0, 0, b(0, 1)); out.Level != HitDisk {
		t.Errorf("cold = %v", out.Level)
	}
	if out := k.Read(0, 0, b(0, 1)); out.Level != HitIO {
		t.Errorf("warm = %v", out.Level)
	}
	// Block in range 1 (storage-placed): second access hits storage even
	// from a different I/O node.
	k.Read(0, 0, b(1, 3))
	if out := k.Read(1, 0, b(1, 3)); out.Level != HitStorage {
		t.Errorf("range-1 warm = %v", out.Level)
	}
	// Block outside every hint: served through the residual partition —
	// first touch goes to disk, the repeat hits the I/O-level stream
	// partition.
	if out := k.Read(0, 0, b(9, 0)); out.Level != HitDisk {
		t.Errorf("unhinted = %v", out.Level)
	}
	if out := k.Read(0, 0, b(9, 0)); out.Level != HitIO {
		t.Errorf("unhinted repeat = %v", out.Level)
	}
}

func TestKARMAExclusive(t *testing.T) {
	k := NewKARMA(1, 1, 4, 64, []RangeHint{
		{File: 0, Start: 0, End: 4, FreqPerIO: []float64{100}},
	})
	k.Read(0, 0, b(0, 0))
	// An io-placed range must never occupy storage partitions.
	for _, p := range k.partST[0] {
		if p.Contains(b(0, 0)) {
			t.Error("io-placed block cached at storage level")
		}
	}
}

func TestKARMARangeLookup(t *testing.T) {
	k := NewKARMA(1, 1, 8, 8, karmaHints())
	cases := []struct {
		blk  BlockID
		want int
	}{
		{b(0, 0), 0}, {b(0, 3), 0}, {b(0, 4), 1}, {b(0, 7), 1},
		{b(0, 8), -1}, {b(1, 15), 2}, {b(2, 63), 3}, {b(5, 0), -1},
	}
	for _, c := range cases {
		if got := k.rangeOf(c.blk); got != c.want {
			t.Errorf("rangeOf(%v) = %d, want %d", c.blk, got, c.want)
		}
	}
}

func TestKARMAStatsAndReset(t *testing.T) {
	k := NewKARMA(1, 1, 8, 8, karmaHints())
	k.Read(0, 0, b(0, 0))
	k.Read(0, 0, b(0, 0))
	s := k.IOStats()
	if s.Accesses != 2 || s.Hits != 1 {
		t.Errorf("io stats = %+v", s)
	}
	k.Reset()
	if k.IOStats().Accesses != 0 {
		t.Error("reset incomplete")
	}
	if k.Describe() == "" {
		t.Error("empty description")
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		m, err := NewByName(name, 2, 2, 4, 4, karmaHints())
		if err != nil || m == nil {
			t.Errorf("NewByName(%q) failed: %v", name, err)
		}
	}
	// Report names are not selectable names: "KARMA" once built KARMA
	// without the hints its callers only generate for "karma".
	for _, name := range []string{"bogus", "LRU", "LRU-inclusive", "DEMOTE-LRU", "KARMA", "MQ"} {
		if _, err := NewByName(name, 1, 1, 1, 1, nil); err == nil {
			t.Errorf("policy %q accepted", name)
		}
	}
}

func TestHitLevelString(t *testing.T) {
	if HitIO.String() != "io" || HitStorage.String() != "storage" || HitDisk.String() != "disk" {
		t.Error("HitLevel strings wrong")
	}
}

func TestRangeHintHelpers(t *testing.T) {
	h := RangeHint{Start: 2, End: 10, FreqPerIO: []float64{1, 2, 3}}
	if h.Blocks() != 8 || h.TotalFreq() != 6 {
		t.Errorf("Blocks=%d TotalFreq=%f", h.Blocks(), h.TotalFreq())
	}
}

// Randomized cross-check: under any interleaving, InclusiveLRU's storage
// cache sees exactly the io-level misses.
func TestInclusiveMissFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewInclusiveLRU(4, 2, 8, 16)
	for i := 0; i < 5000; i++ {
		m.Read(rng.Intn(4), rng.Intn(2), b(int32(rng.Intn(2)), int64(rng.Intn(200))))
	}
	if m.IOStats().Misses != m.StorageStats().Accesses {
		t.Errorf("storage accesses (%d) ≠ io misses (%d)",
			m.StorageStats().Accesses, m.IOStats().Misses)
	}
}
